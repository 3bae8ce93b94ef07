//! Property tests for the sharded snapshot store.
//!
//! The invariants hold for every shard count: any address added to a
//! snapshot is found (with its earliest week), addresses never added are
//! not found, and all shardings answer every query identically.

use std::net::Ipv6Addr;

use proptest::prelude::*;

use v6addr::Prefix;
use v6serve::{Snapshot, SnapshotBuilder};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// Strategy: a global-unicast-ish address with entropy concentrated in
/// the /48 and IID bits so collisions and shared prefixes both happen.
fn addr_bits() -> impl Strategy<Value = u128> {
    (0u128..64, 0u128..256).prop_map(|(net48, iid)| (0x2001_0db8u128 << 96) | (net48 << 80) | iid)
}

fn snapshots_for(entries: &[(u128, u32)]) -> Vec<Snapshot> {
    SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let mut b = SnapshotBuilder::new("prop", shards);
            for &(bits, week) in entries {
                b.add_bits(bits, week);
            }
            b.build()
        })
        .collect()
}

proptest! {
    #[test]
    fn present_found_absent_not(
        entries in proptest::collection::vec((addr_bits(), 0u32..8), 0..200),
        probes in proptest::collection::vec(addr_bits(), 0..50),
    ) {
        for snap in &snapshots_for(&entries) {
            prop_assert!(snap.verify_integrity());
            prop_assert_eq!(
                snap.len(),
                entries.iter().map(|(b, _)| b).collect::<std::collections::BTreeSet<_>>().len() as u64
            );
            // Every inserted address is present with its earliest week.
            for &(bits, _) in &entries {
                let a = Ipv6Addr::from(bits);
                prop_assert!(snap.contains(a));
                let earliest = entries
                    .iter()
                    .filter(|&&(b, _)| b == bits)
                    .map(|&(_, w)| w)
                    .min()
                    .unwrap();
                prop_assert_eq!(snap.first_week(a), Some(earliest));
            }
            // Probes not inserted are absent.
            for &bits in &probes {
                if !entries.iter().any(|&(b, _)| b == bits) {
                    prop_assert!(!snap.contains(Ipv6Addr::from(bits)));
                }
            }
        }
    }

    #[test]
    fn all_shard_counts_answer_identically(
        entries in proptest::collection::vec((addr_bits(), 0u32..8), 1..150),
        probes in proptest::collection::vec(addr_bits(), 1..50),
        week in 0u64..10,
    ) {
        let snaps = snapshots_for(&entries);
        let reference = &snaps[0];
        for snap in &snaps[1..] {
            for &bits in &probes {
                let a = Ipv6Addr::from(bits);
                prop_assert_eq!(snap.contains(a), reference.contains(a));
                prop_assert_eq!(snap.first_week(a), reference.first_week(a));
                for len in [32u8, 40, 48, 64] {
                    let p = Prefix::of(a, len);
                    prop_assert_eq!(snap.count_within(&p), reference.count_within(&p));
                }
            }
            prop_assert_eq!(snap.new_since(week), reference.new_since(week));
            prop_assert_eq!(snap.len(), reference.len());
        }
    }

    #[test]
    fn aliases_filter_membership(
        entries in proptest::collection::vec((addr_bits(), 0u32..4), 1..100),
        alias_net in 0u128..64,
    ) {
        let alias = Prefix::new(
            Ipv6Addr::from((0x2001_0db8u128 << 96) | (alias_net << 80)),
            48,
        );
        for &shards in &SHARD_COUNTS {
            let mut b = SnapshotBuilder::new("prop", shards);
            for &(bits, week) in &entries {
                b.add_bits(bits, week);
            }
            b.add_alias(alias, 0);
            let snap = b.build();
            for &(bits, _) in &entries {
                let a = Ipv6Addr::from(bits);
                prop_assert!(snap.contains(a));
                let expect_aliased = alias.contains(a);
                prop_assert_eq!(snap.longest_alias(a).is_some(), expect_aliased);
                prop_assert_eq!(snap.is_aliased(a), expect_aliased);
            }
        }
    }
}
