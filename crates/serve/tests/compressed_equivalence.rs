//! Equivalence proofs for the compressed tiered store.
//!
//! The compressed-run representation is a pure representation change:
//! every query a snapshot answers must be byte-identical to what a plain
//! sorted `Vec<(u128, u32)>` oracle answers, and the content checksum
//! must equal the oracle's fold. The generators skew addresses into a
//! handful of shared /48s so runs actually compress (many low-64
//! suffixes per high-64 key) while still exercising the sparse tail.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use proptest::prelude::*;

use v6addr::Prefix;
use v6serve::SnapshotBuilder;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// Strategy: addresses concentrated in 32 /48s with a couple of subnet
/// planes each, so most pairs share their high-64 key.
fn clustered_bits() -> impl Strategy<Value = u128> {
    (0u128..32, 0u128..4, 0u128..512).prop_map(|(net48, subnet, iid)| {
        (0x2001_0db8u128 << 96) | (net48 << 80) | (subnet << 64) | iid
    })
}

/// The sorted-vec oracle: earliest week per distinct address.
fn oracle(entries: &[(u128, u32)]) -> BTreeMap<u128, u32> {
    let mut m = BTreeMap::new();
    for &(bits, week) in entries {
        m.entry(bits)
            .and_modify(|w: &mut u32| *w = (*w).min(week))
            .or_insert(week);
    }
    m
}

/// The snapshot's order-independent content checksum, recomputed from
/// first principles over the oracle (mirrors `fold_addr`).
fn oracle_checksum(oracle: &BTreeMap<u128, u32>) -> u64 {
    oracle.iter().fold(0u64, |acc, (&bits, &week)| {
        let mixed = (bits as u64)
            ^ ((bits >> 64) as u64).rotate_left(17)
            ^ u64::from(week).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        acc.wrapping_add(mixed.wrapping_mul(0xbf58_476d_1ce4_e5b9) | 1)
    })
}

fn build(entries: &[(u128, u32)], shards: usize) -> v6serve::Snapshot {
    let mut b = SnapshotBuilder::new("equiv", shards);
    for &(bits, week) in entries {
        b.add_bits(bits, week);
    }
    b.build()
}

proptest! {
    /// Every query the compressed snapshot answers equals the oracle,
    /// for every shard count, and the checksum equals the oracle fold.
    /// `membership` (the benchmark's probe) answers what `contains`
    /// (the front door's probe) answers on every address.
    #[test]
    fn compressed_store_matches_sorted_vec_oracle(
        entries in proptest::collection::vec((clustered_bits(), 0u32..8), 1..300),
        probes in proptest::collection::vec(clustered_bits(), 0..64),
        since in 0u64..10,
    ) {
        let oracle = oracle(&entries);
        let expect_checksum = oracle_checksum(&oracle);
        for &shards in &SHARD_COUNTS {
            let snap = build(&entries, shards);
            prop_assert!(snap.verify_integrity());
            prop_assert_eq!(snap.len(), oracle.len() as u64);
            prop_assert_eq!(snap.content_checksum(), expect_checksum);

            for (&bits, &week) in &oracle {
                let a = Ipv6Addr::from(bits);
                prop_assert!(snap.contains(a));
                prop_assert!(snap.membership(a));
                prop_assert_eq!(snap.first_week(a), Some(week));
            }
            for &bits in &probes {
                let a = Ipv6Addr::from(bits);
                prop_assert_eq!(snap.contains(a), oracle.contains_key(&bits));
                prop_assert_eq!(snap.membership(a), snap.contains(a));
                prop_assert_eq!(
                    snap.first_week(a),
                    oracle.get(&bits).copied()
                );
                let p48 = Prefix::of(a, 48);
                let mask = Prefix::mask(48);
                let net = bits & mask;
                prop_assert_eq!(
                    snap.count_within(&p48),
                    oracle.keys().filter(|&&k| k & mask == net).count() as u64
                );
            }
            // A covering short prefix counts everything.
            let all = Prefix::new(Ipv6Addr::from(0x2001_0db8u128 << 96), 32);
            prop_assert_eq!(snap.count_within(&all), oracle.len() as u64);
            prop_assert_eq!(
                snap.new_since(since),
                oracle.values().filter(|&&w| u64::from(w) > since).count() as u64
            );
        }
    }
}
