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
//! that already holds one (a cluster replica) hands it alone to
//! [`HitlistStore::publish_delta`], which applies it to the snapshot it
//! serves; for a publisher that only has the new snapshot,
//! [`delta_between`] derives the record from the snapshot currently
//! served (and [`delta_to_content`] does the same for a publisher
//! holding the new content as flat lists). Both walk /64 key blocks,
//! not entries: a block whose lows and weeks are unchanged — almost all
//! of them between two epochs of a clustered corpus — is passed over
//! after one slice comparison, and only a changed block is merged entry
//! by entry. The flat forms — [`flatten_snapshot`],
//! [`state_from_snapshot`], [`snapshot_from_state`] — are for the rare
//! paths that need the whole content at once: a checkpoint, a recovery,
//! a replica bootstrap. On disk and on the wire that content travels as
//! /64 key blocks (on-disk format v2), the grouping the shards'
//! compressed runs hold, at ≈ 12.75 B per address on a clustered
//! corpus.
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
/// copied whole — yields the global order without a sort. Aliases come
/// from the snapshot's one alias map, already in `(bits, len)` order.
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

/// Every alias registration of a snapshot, sorted by `(bits, len)`.
fn flat_aliases(snap: &Snapshot) -> Vec<AliasEntry> {
    (snap.aliases.iter())
        .map(|(prefix, &week)| AliasEntry {
            bits: prefix.bits(),
            len: prefix.len(),
            week,
        })
        .collect()
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
/// snapshots share by pointer are skipped; every other pair is walked
/// /64 key block by key block, a block whose lows and weeks are equal
/// on both sides is passed over after one slice comparison, and only
/// the delta is sorted back into global order.
///
/// # Panics
/// Panics if the shard counts differ.
pub fn delta_between(prev: &Snapshot, next: &Snapshot, epoch: u64) -> DeltaRecord {
    assert_eq!(prev.shard_count(), next.shard_count());
    let mut diff = EntryDiff::default();
    for (old, new) in prev.shards().iter().zip(next.shards()) {
        if Arc::ptr_eq(old, new) {
            continue;
        }
        let mut old = key_blocks(old);
        for (hi, lows, weeks) in key_blocks(new) {
            let was = diff.seek(&mut old, hi);
            if was != (lows, weeks) {
                diff.merge(hi, was, zip(lows.iter().copied(), weeks.iter().copied()));
            }
        }
        diff.rest(old);
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
/// [`v6stream::fold_content`] term per changed entry; publishing the
/// record ([`HitlistStore::publish_delta`]) re-derives it twice more,
/// once as it applies the record and once as it verifies the rebuilt
/// shards from scratch. Walked by
/// /64 key block like [`delta_between`], each block of the content
/// against its shard's block under the same key.
///
/// `entries` must be sorted by bits and deduplicated, `aliases` sorted
/// by `(bits, len)`. `None` when `entries` is not, so a record never
/// carries content other than what it was handed: the walk checks that
/// keys rise from block to block and lows inside every changed block
/// (an unchanged block equals `prev`'s, which is sorted).
pub fn delta_to_content(
    prev: &Snapshot,
    epoch: u64,
    week: u64,
    entries: &[(u128, u32)],
    aliases: &[AliasEntry],
) -> Option<DeltaRecord> {
    // The flat list restricted to one shard is that shard's order, so
    // one cursor per shard walks it in step with the list.
    let shard_bits = prev.shard_count().trailing_zeros();
    let mut cursors: Vec<_> = prev.shards().iter().map(|s| key_blocks(s)).collect();
    let mut diff = EntryDiff::default();
    let mut last_hi = None;
    for block in entries.chunk_by(|a, b| a.0 >> 64 == b.0 >> 64) {
        let hi = (block[0].0 >> 64) as u64;
        if last_hi.is_some_and(|last| last >= hi) {
            return None;
        }
        last_hi = Some(hi);
        let old = &mut cursors[shard48(block[0].0, shard_bits)];
        let was @ (lows, weeks) = diff.seek(old, hi);
        let unchanged = lows.len() == block.len()
            && zip(block, zip(lows, weeks)).all(|(&(b, w), (&lo, &ow))| b as u64 == lo && w == ow);
        if unchanged {
            continue;
        }
        if !block.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            return None;
        }
        let new = block.iter().map(|&(bits, week)| (bits as u64, week));
        diff.merge(hi, was, new);
    }
    for old in cursors {
        diff.rest(old);
    }
    let content_checksum = prev.content_checksum().wrapping_add(diff.checksum_moved);
    let (removed, added) = diff.sorted();
    let (removed_aliases, added_aliases) = replica::diff_aliases(&flat_aliases(prev), aliases);
    Some(DeltaRecord {
        epoch,
        week,
        content_checksum,
        missing_shards: Vec::new(),
        removed,
        added,
        removed_aliases,
        added_aliases,
    })
}

/// One /64 key block of a shard: its key, its sorted lows, and their
/// first-published weeks.
type KeyBlock<'a> = (u64, &'a [u64], &'a [u32]);

/// A shard's key blocks in ascending key order.
fn key_blocks(shard: &Shard) -> Peekable<impl Iterator<Item = KeyBlock<'_>>> {
    (shard.run.blocks())
        .map(|(start, hi, lows)| (hi, lows, &shard.first_week[start..start + lows.len()]))
        .peekable()
}

/// The entry half of a delta, accumulated key block by key block.
#[derive(Default)]
struct EntryDiff {
    removed: Vec<u128>,
    added: Vec<(u128, u32)>,
    /// Σ terms of what `added` brings − Σ terms of what it replaces and
    /// of what `removed` takes: how far the content checksum moves.
    checksum_moved: u64,
}

impl EntryDiff {
    /// Steps the old shard's cursor to key `hi`: every block below it
    /// is gone whole. Returns the old block under `hi` as `(lows,
    /// weeks)`, empty when the old shard has none.
    fn seek<'a>(
        &mut self,
        old: &mut Peekable<impl Iterator<Item = KeyBlock<'a>>>,
        hi: u64,
    ) -> (&'a [u64], &'a [u32]) {
        while let Some((gone, lows, weeks)) = old.next_if(|b| b.0 < hi) {
            self.merge(gone, (lows, weeks), []);
        }
        old.next_if(|b| b.0 == hi)
            .map_or((&[], &[]), |(_, lows, weeks)| (lows, weeks))
    }

    /// Appends what turns the old block `(lows, weeks)` under `hi` into
    /// `new` (lows strictly ascending, with their weeks): addresses
    /// gone, and entries new or under a different week.
    fn merge(
        &mut self,
        hi: u64,
        (lows, weeks): (&[u64], &[u32]),
        new: impl IntoIterator<Item = (u64, u32)>,
    ) {
        let net = u128::from(hi) << 64;
        let mut old = zip(lows, weeks).peekable();
        for (lo, week) in new {
            while let Some((&l, &w)) = old.next_if(|o| *o.0 < lo) {
                self.gone(net | u128::from(l), w);
            }
            let bits = net | u128::from(lo);
            match old.next_if(|o| *o.0 == lo) {
                Some((_, &w)) if w == week => continue,
                Some((_, &w)) => {
                    self.checksum_moved = self.checksum_moved.wrapping_sub(content_term(bits, w))
                }
                None => {}
            }
            self.added.push((bits, week));
            self.checksum_moved = self.checksum_moved.wrapping_add(content_term(bits, week));
        }
        for (&l, &w) in old {
            self.gone(net | u128::from(l), w);
        }
    }

    /// The end of a shard's walk: whatever the cursor still holds is
    /// gone.
    fn rest<'a>(&mut self, old: impl Iterator<Item = KeyBlock<'a>>) {
        for (hi, lows, weeks) in old {
            self.merge(hi, (lows, weeks), []);
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
    use v6store::EpochView;

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
        b.add_alias("2001:db8::/32".parse().unwrap(), 0); // < /48: spans every shard
        let snap = b.build();

        let (entries, aliases) = flatten_snapshot(&snap);
        assert_eq!(entries.len() as u64, snap.len());
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(aliases.len(), 2, "one registration per alias");

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

    /// The /64 key block `(net48, subnet)`: shard `net48 % 2` of a
    /// two-shard snapshot, its `iids` under `week`.
    fn block(net48: u128, subnet: u128, iids: &[u64], week: u32) -> Vec<(u128, u32)> {
        let net = (0x2001_0db8 << 96) | (net48 << 80) | (subnet << 64);
        iids.iter()
            .map(|&iid| (net | u128::from(iid), week))
            .collect()
    }

    fn state(entries: &[(u128, u32)]) -> EpochState {
        EpochState {
            name: "svc".into(),
            shard_bits: 1,
            epoch: 1,
            week: 3,
            entries: entries.to_vec(),
            ..EpochState::default()
        }
    }

    /// Both snapshot diffs derive the record [`replica::delta_between`]
    /// derives from the flat lists, and it removes and adds what the
    /// caller expects. The two snapshots are built apart, so no shard
    /// is shared by pointer and every block is walked.
    fn assert_diff(
        old: &[(u128, u32)],
        new: &[(u128, u32)],
        removed: &[u128],
        added: &[(u128, u32)],
    ) {
        let (prev, next) = (
            snapshot_from_state(&state(old)),
            snapshot_from_state(&state(new)),
        );
        let canonical = replica::delta_between(
            &state(old),
            &EpochView {
                epoch: 2,
                week: 3,
                content_checksum: next.content_checksum(),
                missing_shards: &[],
                entries: new,
                aliases: &[],
            },
        );
        assert_eq!(
            (&canonical.removed[..], &canonical.added[..]),
            (removed, added)
        );
        assert_eq!(delta_between(&prev, &next, 2), canonical);
        assert_eq!(delta_to_content(&prev, 2, 3, new, &[]), Some(canonical));
    }

    #[test]
    fn a_week_changed_under_the_same_lows_is_not_skipped() {
        let old = block(0, 1, &[1, 2, 3], 0);
        let mut new = old.clone();
        new[1].1 = 5;
        assert_diff(&old, &new, &[], &[new[1]]);
    }

    #[test]
    fn a_low_changed_at_the_same_length_is_not_skipped() {
        let old = block(0, 1, &[1, 2, 3], 0);
        let new = block(0, 1, &[1, 3, 4], 0);
        assert_diff(&old, &new, &[old[1].0], &[new[2]]);
    }

    #[test]
    fn a_block_gone_whole_between_two_unchanged_blocks() {
        let gone = block(0, 2, &[4, 5], 1);
        let old = [block(0, 1, &[1, 2], 0), gone.clone(), block(0, 3, &[1], 2)].concat();
        let new = [block(0, 1, &[1, 2], 0), block(0, 3, &[1], 2)].concat();
        assert_diff(&old, &new, &[gone[0].0, gone[1].0], &[]);
    }

    #[test]
    fn new_blocks_before_between_and_after_the_old_ones() {
        let (first, between, last) = (
            block(0, 1, &[9], 1),
            block(0, 3, &[2, 3], 1),
            block(0, 5, &[1], 1),
        );
        let old = [block(0, 2, &[1, 2], 0), block(0, 4, &[7], 0)].concat();
        let new = [
            first.clone(),
            block(0, 2, &[1, 2], 0),
            between.clone(),
            block(0, 4, &[7], 0),
            last.clone(),
        ]
        .concat();
        assert_diff(&old, &new, &[], &[first, between, last].concat());
    }

    #[test]
    fn empty_previous_snapshot_and_empty_content() {
        let content = [block(0, 1, &[1, 2], 0), block(1, 1, &[3], 1)].concat();
        let bits: Vec<u128> = content.iter().map(|e| e.0).collect();
        assert_diff(&[], &content, &[], &content);
        assert_diff(&content, &[], &bits, &[]);
        assert_diff(&[], &[], &[], &[]);
    }

    #[test]
    fn a_shard_whose_blocks_are_all_unchanged_contributes_nothing() {
        // Shard 0 holds /48s 0 and 2, shard 1 holds /48 1.
        let (a, c) = (block(0, 1, &[1, 2, 3], 0), block(2, 1, &[4], 1));
        let old = [a.clone(), block(1, 1, &[1], 0), c.clone()].concat();
        let new = [a, block(1, 1, &[1, 2], 0), c].concat();
        assert_diff(&old, &new, &[], &block(1, 1, &[2], 0));
    }

    #[test]
    fn unsorted_or_duplicated_content_is_refused() {
        let prev = snapshot_from_state(&state(&block(0, 1, &[1, 2], 0)));
        let (one, two) = (block(0, 1, &[1], 0), block(0, 2, &[1], 0));
        let refused = [
            // Lows fall inside a changed block.
            block(0, 1, &[2, 1], 0),
            // Keys fall, and a key returns after another.
            [two.clone(), one.clone()].concat(),
            [one.clone(), two, block(0, 1, &[2], 0)].concat(),
            // A duplicate address.
            [one.clone(), one].concat(),
        ];
        for entries in refused {
            let delta = delta_to_content(&prev, 2, 3, &entries, &[]);
            assert_eq!(delta, None, "{entries:x?}");
        }
    }
}
