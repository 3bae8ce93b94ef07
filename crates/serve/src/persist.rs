//! Durable publication: the bridge between [`HitlistStore`] and the
//! [`v6store`] write-ahead epoch log.
//!
//! A persistent store publishes write-ahead: the epoch's delta frame is
//! appended and fsynced to the log *before* the snapshot becomes
//! visible to readers, so every epoch a reader has ever observed is
//! recoverable after a crash. [`HitlistStore::recover`] inverts the
//! mapping — it replays checkpoint + log back into an
//! [`v6store::EpochState`] and rebuilds the sharded [`Snapshot`] from
//! it, verifying that the rebuilt content checksum matches the one the
//! log recorded at publish time.
//!
//! The unit that crosses the bridge is the [`DeltaRecord`]. A publisher
//! that already holds one (a cluster replica) hands it to
//! [`HitlistStore::publish_delta`] with the snapshot it produces; for a
//! publisher that only has the new snapshot, [`delta_between`] derives
//! the record shard by shard from the snapshot currently served (and
//! [`delta_to_content`] does the same for a publisher holding the new
//! content as flat lists). The
//! flat forms — [`flatten_snapshot`], [`state_from_snapshot`],
//! [`snapshot_from_state`] — are for the rare paths that need the whole
//! content at once: a checkpoint, a recovery, a replica bootstrap. On
//! disk and on the wire that content travels as /64 key blocks (on-disk
//! format v2), the grouping the shards' compressed runs hold, at ≈ 12.75
//! B per address on a clustered corpus.
//!
//! A store's directory is the one its [`v6store::StoreConfig`] names;
//! see the README "Durability" section and DESIGN.md §11 for the
//! on-disk format.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::{zip, Peekable};
use std::sync::Arc;

use v6addr::{shard48, Prefix};
use v6store::{replica, AliasEntry, DeltaRecord, EpochState};
use v6stream::content_term;

use crate::snapshot::{Shard, Snapshot};

#[allow(unused_imports)] // doc links
use crate::store::HitlistStore;

/// Flattens a snapshot into the globally sorted entry and alias lists
/// an [`v6store::EpochView`] wants.
///
/// Shards partition by the *low* bits of each /48, so per-shard order
/// does not concatenate into global order. But a /64 key block of a
/// shard's compressed run lies in that shard alone, so merging the
/// shards' blocks by key — a heap over one cursor per shard, each block
/// copied whole — yields the global order without a sort. Aliases
/// shorter than /48 are replicated into every shard at build time and
/// are deduplicated back to one registration here.
///
/// O(content): what a checkpoint writes and a replica bootstrap sends
/// ([`state_from_snapshot`]), never the per-epoch path.
pub fn flatten_snapshot(snap: &Snapshot) -> (Vec<(u128, u32)>, Vec<AliasEntry>) {
    let mut entries = Vec::with_capacity(snap.len() as usize);
    let mut cursors: Vec<_> = (snap.shards().iter())
        .map(|shard| (shard, shard.run.blocks().peekable()))
        .collect();
    let mut next: BinaryHeap<Reverse<(u64, usize)>> = (cursors.iter_mut().enumerate())
        .filter_map(|(i, (_, blocks))| Some(Reverse((blocks.peek()?.1, i))))
        .collect();
    while let Some(Reverse((hi, i))) = next.pop() {
        let (shard, blocks) = &mut cursors[i];
        let (start, _, lows) = blocks.next().expect("a queued shard has a block");
        let (net, weeks) = (u128::from(hi) << 64, &shard.first_week[start..]);
        entries.extend(zip(lows, weeks).map(|(&lo, &w)| (net | u128::from(lo), w)));
        if let Some(&(_, hi, _)) = blocks.peek() {
            next.push(Reverse((hi, i)));
        }
    }
    (entries, flat_aliases(snap))
}

/// Every alias registration of a snapshot, sorted by `(bits, len)`,
/// with the per-shard replicas of sub-/48 aliases folded back to one.
fn flat_aliases(snap: &Snapshot) -> Vec<AliasEntry> {
    let mut aliases = Vec::new();
    for shard in snap.shards() {
        for (prefix, &week) in shard.aliases.iter() {
            aliases.push(AliasEntry {
                bits: prefix.bits(),
                len: prefix.len(),
                week,
            });
        }
    }
    aliases.sort_unstable_by_key(|a| (a.bits, a.len));
    aliases.dedup_by_key(|a| (a.bits, a.len));
    aliases
}

/// The full [`EpochState`] a snapshot describes — the inverse of
/// [`snapshot_from_state`], for handing a whole partition to a peer
/// (replica bootstrap). O(content): not for the per-epoch path.
pub fn state_from_snapshot(snap: &Snapshot) -> EpochState {
    let (entries, aliases) = flatten_snapshot(snap);
    EpochState {
        name: snap.name().to_string(),
        shard_bits: snap.shard_count().trailing_zeros(),
        epoch: snap.epoch(),
        week: snap.week(),
        content_checksum: snap.content_checksum(),
        missing_shards: snap.missing_shards().to_vec(),
        entries,
        aliases,
    }
}

/// The record that carries `prev` to `next`, published as `epoch`: the
/// same record [`v6store::replica::delta_between`] derives from the two
/// flattened states, computed without flattening either. Shards the two
/// snapshots share by pointer are skipped; every other pair is diffed
/// by one linear walk of the two runs, and only the delta is sorted
/// back into global order.
///
/// # Panics
/// Panics if the shard counts differ.
pub fn delta_between(prev: &Snapshot, next: &Snapshot, epoch: u64) -> DeltaRecord {
    assert_eq!(prev.shard_count(), next.shard_count());
    let mut diff = EntryDiff::default();
    for (old, new) in prev.shards().iter().zip(next.shards()) {
        if !Arc::ptr_eq(old, new) {
            diff.shard(old, new.entries());
        }
    }
    let (removed, added) = diff.sorted();
    let (removed_aliases, added_aliases) =
        replica::diff_aliases(&flat_aliases(prev), &flat_aliases(next));
    DeltaRecord {
        epoch,
        week: next.week(),
        content_checksum: next.content_checksum(),
        missing_shards: next.missing_shards().to_vec(),
        removed,
        added,
        removed_aliases,
        added_aliases,
    }
}

/// The record that carries `prev` to the given full content, published
/// as `epoch` with every shard healthy — what a cluster leader, handed
/// a partition's next content as flat sorted lists, logs and pushes.
/// The content checksum is `prev`'s moved by one
/// [`v6stream::fold_content`] term per changed entry; applying the
/// record ([`Snapshot::apply_delta`]) and publishing the result
/// re-derives it twice more, the second time from scratch.
///
/// `entries` must be sorted by bits and deduplicated, `aliases` sorted
/// by `(bits, len)`.
pub fn delta_to_content(
    prev: &Snapshot,
    epoch: u64,
    week: u64,
    entries: &[(u128, u32)],
    aliases: &[AliasEntry],
) -> DeltaRecord {
    // The flat list restricted to one shard is that shard's order, so
    // one cursor per shard walks it in step with the list.
    let shard_bits = prev.shard_count().trailing_zeros();
    let mut cursors: Vec<_> = prev
        .shards()
        .iter()
        .map(|shard| shard.entries().peekable())
        .collect();
    let mut diff = EntryDiff::default();
    for &(bits, week) in entries {
        diff.entry(&mut cursors[shard48(bits, shard_bits)], bits, week);
    }
    for old in cursors {
        diff.rest(old);
    }
    let content_checksum = prev.content_checksum().wrapping_add(diff.checksum_moved);
    let (removed, added) = diff.sorted();
    let (removed_aliases, added_aliases) = replica::diff_aliases(&flat_aliases(prev), aliases);
    DeltaRecord {
        epoch,
        week,
        content_checksum,
        missing_shards: Vec::new(),
        removed,
        added,
        removed_aliases,
        added_aliases,
    }
}

/// The entry half of a delta, accumulated shard by shard.
#[derive(Default)]
struct EntryDiff {
    removed: Vec<u128>,
    added: Vec<(u128, u32)>,
    /// Σ terms of what `added` brings − Σ terms of what it replaces and
    /// of what `removed` takes: how far the content checksum moves.
    checksum_moved: u64,
}

impl EntryDiff {
    /// Appends what turns `old` into `new` (sorted by bits): addresses
    /// gone, and entries new or under a different week.
    fn shard(&mut self, old: &Shard, new: impl Iterator<Item = (u128, u32)>) {
        let mut old = old.entries().peekable();
        for (bits, week) in new {
            self.entry(&mut old, bits, week);
        }
        self.rest(old);
    }

    /// One step of the walk: `old` has been consumed up to the previous
    /// new entry; everything it still holds below `bits` is gone.
    fn entry<I>(&mut self, old: &mut Peekable<I>, bits: u128, week: u32)
    where
        I: Iterator<Item = (u128, u32)>,
    {
        while let Some((b, w)) = old.next_if(|o| o.0 < bits) {
            self.gone(b, w);
        }
        match old.next_if(|o| o.0 == bits) {
            Some((_, w)) if w == week => return,
            Some((_, w)) => {
                self.checksum_moved = self.checksum_moved.wrapping_sub(content_term(bits, w))
            }
            None => {}
        }
        self.added.push((bits, week));
        self.checksum_moved = self.checksum_moved.wrapping_add(content_term(bits, week));
    }

    /// The end of the walk: whatever `old` still holds is gone.
    fn rest(&mut self, old: impl Iterator<Item = (u128, u32)>) {
        for (b, w) in old {
            self.gone(b, w);
        }
    }

    fn gone(&mut self, bits: u128, week: u32) {
        self.removed.push(bits);
        self.checksum_moved = self.checksum_moved.wrapping_sub(content_term(bits, week));
    }

    /// `(removed, added)` in global order: shards partition by the low
    /// bits of the /48, so their diffs do not concatenate sorted.
    fn sorted(mut self) -> (Vec<u128>, Vec<(u128, u32)>) {
        v6par::radix_sort_by_key(&mut self.removed, |&bits| (bits, 0));
        v6par::radix_sort_by_key(&mut self.added, |&(bits, week)| (bits, u64::from(week)));
        (self.removed, self.added)
    }
}

/// Rebuilds the sharded snapshot a recovered epoch state describes.
///
/// The content checksum is recomputed from the entries; the caller
/// compares it against the checksum the log recorded at publish time
/// to detect any divergence between the persisted delta chain and the
/// serving data structures.
///
/// Public because a cluster replica adopting a bootstrap rebuilds its
/// serving snapshot from the [`EpochState`] it was sent through exactly
/// this path.
pub fn snapshot_from_state(state: &EpochState) -> Snapshot {
    let shard_count = 1usize << state.shard_bits;
    let mut shard_data: Vec<Vec<(u128, u32)>> =
        vec![Vec::with_capacity(state.entries.len() / shard_count + 1); shard_count];
    for &(bits, week) in &state.entries {
        shard_data[shard48(bits, state.shard_bits)].push((bits, week));
    }
    let aliases: Vec<(Prefix, u32)> = state
        .aliases
        .iter()
        .map(|a| (Prefix::from_bits(a.bits, a.len), a.week))
        .collect();
    let mut snap =
        Snapshot::from_sorted_parts(&state.name, state.shard_bits, &shard_data, &aliases);
    snap.epoch = state.epoch;
    snap.week = state.week;
    snap.missing_shards = state.missing_shards.clone();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotBuilder;
    use std::net::Ipv6Addr;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn flatten_and_rebuild_round_trip() {
        let mut b = SnapshotBuilder::new("svc", 8);
        for i in 0..100u32 {
            b.add_address(addr(&format!("2001:db8:{:x}::{:x}", i % 13, i + 1)), i % 4);
        }
        b.add_alias("2001:db8:1::/48".parse().unwrap(), 1);
        b.add_alias("2001:db8::/32".parse().unwrap(), 0); // < /48: replicated
        let snap = b.build();

        let (entries, aliases) = flatten_snapshot(&snap);
        assert_eq!(entries.len() as u64, snap.len());
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(aliases.len(), 2, "sub-/48 replication deduplicated");

        let state = EpochState {
            name: "svc".into(),
            shard_bits: 3,
            epoch: 7,
            week: snap.week(),
            content_checksum: snap.content_checksum(),
            missing_shards: vec![],
            entries,
            aliases,
        };
        let rebuilt = snapshot_from_state(&state);
        assert_eq!(rebuilt.epoch(), 7);
        assert!(rebuilt.verify_integrity());
        assert_eq!(rebuilt.content_checksum(), snap.content_checksum());
        assert_eq!(rebuilt.len(), snap.len());
        assert!(rebuilt.is_aliased(addr("2001:db8:1::5")));
        assert!(rebuilt.is_aliased(addr("2001:db8:ff::5")));
    }
}
