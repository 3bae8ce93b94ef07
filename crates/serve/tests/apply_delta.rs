//! `Snapshot::apply_delta` ≡ rebuild.
//!
//! A replica carries its serving snapshot forward through the delta it
//! was handed instead of rebuilding it from a flat mirror. That is only
//! sound if the two are indistinguishable: for random states and random
//! deltas, `prev.apply_delta(&d)` and
//! `snapshot_from_state(&apply(state, d))` must agree on the checksum,
//! on the flattened content, and on every query — and the records the
//! serving layer derives from snapshots must be the records `v6store`
//! derives from flat states, or the log format would fork.
//!
//! The universe is small (8 /48s × 2 subnets × 16 IIDs) so removals
//! regularly empty a key block or a whole shard, upserts regularly hit
//! addresses already present, and aliases shorter than /48 show up
//! beside /48 and /64 ones. Aliases live in the snapshot's one alias
//! map, so an alias change alone rebuilds no shard.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

use proptest::prelude::*;

use v6addr::{shard48, Prefix};
use v6serve::persist::{delta_between, delta_to_content, flatten_snapshot, snapshot_from_state};
use v6store::replica::{self, DeltaRecord};
use v6store::{AliasEntry, EpochState, EpochView};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const BASE: u128 = 0x2001_0db8 << 96;

fn bits() -> impl Strategy<Value = u128> {
    (0u128..8, 0u128..2, 0u128..16)
        .prop_map(|(net48, subnet, iid)| BASE | (net48 << 80) | (subnet << 64) | iid)
}

/// An alias under one of the universe's /48s — or above them all: /32
/// and /40 span every shard, /48 and /64 lie in one.
fn alias() -> impl Strategy<Value = AliasEntry> {
    (0u128..8, 0usize..4, 0u32..8).prop_map(|(net48, len, week)| {
        let len = [32u8, 40, 48, 64][len];
        AliasEntry {
            bits: (BASE | (net48 << 80)) & Prefix::mask(len),
            len,
            week,
        }
    })
}

fn sorted_aliases(mut aliases: Vec<AliasEntry>) -> Vec<AliasEntry> {
    aliases.sort_unstable_by_key(|a| (a.bits, a.len));
    aliases.dedup_by_key(|a| (a.bits, a.len));
    aliases
}

fn view(state: &EpochState) -> EpochView<'_> {
    EpochView {
        epoch: state.epoch,
        week: state.week,
        content_checksum: state.content_checksum,
        missing_shards: &state.missing_shards,
        entries: &state.entries,
        aliases: &state.aliases,
    }
}

fn checksum(entries: &[(u128, u32)]) -> u64 {
    entries
        .iter()
        .fold(0, |acc, &(b, w)| v6stream::fold_content(acc, b, w))
}

proptest! {
    #[test]
    fn apply_delta_is_indistinguishable_from_a_rebuild(
        base in proptest::collection::vec((bits(), 0u32..6), 0..200),
        base_aliases in proptest::collection::vec(alias(), 0..4),
        removed in proptest::collection::vec(bits(), 0..120),
        wipe48 in 0u128..12,
        upserts in proptest::collection::vec((bits(), 0u32..8), 0..60),
        removed_aliases in proptest::collection::vec(alias(), 0..3),
        added_aliases in proptest::collection::vec(alias(), 0..3),
        quarantined in 0u32..3,
        probes in proptest::collection::vec(bits(), 0..32),
    ) {
        for &shards in &SHARD_COUNTS {
            let shard_bits = shards.trailing_zeros();
            let entries: Vec<(u128, u32)> = base
                .iter()
                .copied()
                .collect::<BTreeMap<u128, u32>>()
                .into_iter()
                .collect();
            let state = EpochState {
                name: "prop".into(),
                shard_bits,
                epoch: 3,
                week: 5,
                content_checksum: checksum(&entries),
                missing_shards: vec![],
                entries,
                aliases: sorted_aliases(base_aliases.clone()),
            };

            // Removals: scattered addresses (held or not), plus — most of
            // the time — one /48 wiped whole, which empties its key
            // blocks and, at 16 shards, usually its shard.
            let mut gone = removed.clone();
            gone.extend(
                state
                    .entries
                    .iter()
                    .map(|e| e.0)
                    .filter(|b| (b >> 80) & 0xffff == wipe48),
            );
            gone.sort_unstable();
            gone.dedup();
            let added: Vec<(u128, u32)> = upserts
                .iter()
                .copied()
                .collect::<BTreeMap<u128, u32>>()
                .into_iter()
                .collect();
            let mut delta = DeltaRecord {
                epoch: 9,
                week: 7,
                content_checksum: 0,
                missing_shards: (0..quarantined.min(shards as u32)).collect(),
                removed: gone,
                added,
                removed_aliases: sorted_aliases(removed_aliases.clone())
                    .iter()
                    .map(|a| (a.bits, a.len))
                    .collect(),
                added_aliases: sorted_aliases(added_aliases.clone()),
            };
            let mut expect = state.clone();
            replica::apply(&mut expect, &delta);
            delta.content_checksum = checksum(&expect.entries);
            expect.content_checksum = delta.content_checksum;

            let prev = snapshot_from_state(&state);
            let next = prev.apply_delta(&delta);
            prop_assert!(next.is_some(), "a well-formed delta was rejected");
            let next = next.unwrap();
            let rebuilt = snapshot_from_state(&expect);

            prop_assert!(next.verify_integrity());
            prop_assert_eq!(next.content_checksum(), rebuilt.content_checksum());
            prop_assert_eq!(next.len(), rebuilt.len());
            prop_assert_eq!(next.week(), 7);
            prop_assert_eq!(next.missing_shards(), rebuilt.missing_shards());
            prop_assert_eq!(flatten_snapshot(&next), flatten_snapshot(&rebuilt));

            for &b in &probes {
                let a = Ipv6Addr::from(b);
                prop_assert_eq!(next.contains(a), rebuilt.contains(a));
                prop_assert_eq!(next.first_week(a), rebuilt.first_week(a));
                prop_assert_eq!(next.longest_alias(a), rebuilt.longest_alias(a));
                for len in [32u8, 48, 64] {
                    let p = Prefix::of(a, len);
                    prop_assert_eq!(next.count_within(&p), rebuilt.count_within(&p));
                }
            }
            for since in 0..9 {
                prop_assert_eq!(next.new_since(since), rebuilt.new_since(since));
            }

            // A shard none of the delta's addresses fall in is the
            // previous epoch's, by pointer, whatever aliases it changes.
            let mut touched = vec![false; shards];
            for &b in &delta.removed {
                touched[shard48(b, shard_bits)] = true;
            }
            for &(b, _) in &delta.added {
                touched[shard48(b, shard_bits)] = true;
            }
            for (i, was_touched) in touched.iter().enumerate() {
                if !was_touched {
                    prop_assert!(Arc::ptr_eq(&prev.shards()[i], &next.shards()[i]));
                }
            }

            // A record whose checksum is not the content's is refused.
            let mut forged = delta.clone();
            forged.content_checksum ^= 1;
            prop_assert!(prev.apply_delta(&forged).is_none());

            // The records the serving layer derives are the store's.
            let canonical = replica::delta_between(&state, &view(&expect));
            let mut from_snapshots = delta_between(&prev, &next, expect.epoch);
            prop_assert_eq!(&from_snapshots, &canonical);
            from_snapshots = delta_between(&prev, &rebuilt, expect.epoch);
            prop_assert_eq!(&from_snapshots, &canonical);
            let mut from_content =
                delta_to_content(&prev, expect.epoch, expect.week, &expect.entries, &expect.aliases)
                    .expect("sorted, deduplicated content");
            // `delta_to_content` publishes healthy epochs only.
            from_content.missing_shards.clone_from(&canonical.missing_shards);
            prop_assert_eq!(&from_content, &canonical);
        }
    }
}
