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
use v6serve::{Snapshot, SnapshotBuilder};
use v6store::DeltaRecord;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
/// Shards of the fence test: each holds its own draw of /64 keys.
const FENCED_SHARDS: u128 = 4;
const BASE: u128 = 0x2001_0db8 << 96;

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

fn build(entries: &[(u128, u32)], shards: usize) -> Snapshot {
    let mut b = SnapshotBuilder::new("equiv", shards);
    for &(bits, week) in entries {
        b.add_bits(bits, week);
    }
    b.build()
}

/// Strategy: one shard's /64 keys, up to 100 draws of `(/48, subnet,
/// addresses under it, week)` over three of the shard's /48s, so that
/// the shard's key count straddles the fence steps at 16, 32 and 48.
fn shard_keys() -> impl Strategy<Value = Vec<(u128, u128, u128, u32)>> {
    proptest::collection::vec((0u128..3, 0u128..256, 1u128..4, 0u32..8), 0..100)
}

/// The entries `shard_keys` draws for shard `s`: odd IIDs, so an
/// address ± 1 is never stored.
fn fenced_entries(s: u128, keys: &[(u128, u128, u128, u32)]) -> Vec<(u128, u32)> {
    let mut entries = Vec::new();
    for &(net48, subnet, n, week) in keys {
        let net64 = BASE | ((s + FENCED_SHARDS * net48) << 80) | (subnet << 64);
        entries.extend((0..n).map(|i| (net64 | (2 * i + 1), week)));
    }
    entries
}

/// Every stored address, each ± 1, the same IID under the /64 keys on
/// either side, and the addresses below the first and above the last
/// answer `contains`, `first_week` and /32, /40, /47, /48, /56, /64
/// `count_within` as the oracle does: below /48 a count spans every
/// shard.
fn assert_matches_oracle(snap: &Snapshot, oracle: &BTreeMap<u128, u32>) {
    assert!(snap.verify_integrity());
    assert_eq!(snap.len(), oracle.len() as u64);
    let mut probes = vec![0, BASE - 1, u128::MAX];
    for &bits in oracle.keys() {
        probes.extend([bits, bits - 1, bits + 1, bits - (1 << 64), bits + (1 << 64)]);
    }
    for bits in probes {
        let a = Ipv6Addr::from(bits);
        assert_eq!(snap.contains(a), oracle.contains_key(&bits), "{a}");
        assert_eq!(snap.first_week(a), oracle.get(&bits).copied(), "{a}");
        for len in [32u8, 40, 47, 48, 56, 64] {
            let p = Prefix::of(a, len);
            let within = oracle.range(p.bits()..=u128::from(p.last())).count();
            assert_eq!(snap.count_within(&p), within as u64, "{p}");
        }
    }
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

    /// Shards of 0 to about 100 /64 keys answer as the oracle does, so a
    /// key search that goes through the fence is checked on both sides
    /// of every fence entry: built by `SnapshotBuilder`, and carried
    /// forward by `apply_delta`, whose merge copies untouched key blocks
    /// whole and re-pushes touched ones address by address.
    #[test]
    fn fenced_key_search_matches_oracle_across_fence_steps(
        keys in proptest::collection::vec(shard_keys(), FENCED_SHARDS as usize),
        stride in 2u128..6,
    ) {
        let entries: Vec<(u128, u32)> = (0..FENCED_SHARDS)
            .flat_map(|s| fenced_entries(s, &keys[s as usize]))
            .collect();
        let expect = oracle(&entries);
        let snap = build(&entries, FENCED_SHARDS as usize);
        assert_matches_oracle(&snap, &expect);

        // The previous epoch lacks every `stride`th /64 key's first
        // address and holds one address, under every (`stride` + 1)th
        // key, that the delta removes.
        let added: Vec<(u128, u32)> = expect
            .iter()
            .filter(|&(&b, _)| (b >> 64) % stride == 0 && b & 0xff == 1)
            .map(|(&b, &w)| (b, w))
            .collect();
        let removed: Vec<u128> = expect
            .keys()
            .filter(|&&b| (b >> 64) % (stride + 1) == 0 && b & 0xff == 1)
            .map(|&b| b | 0xff00)
            .collect();
        let prev_entries: Vec<(u128, u32)> = expect
            .iter()
            .map(|(&b, &w)| (b, w))
            .filter(|e| added.binary_search(e).is_err())
            .chain(removed.iter().map(|&b| (b, 0)))
            .collect();
        let prev = build(&prev_entries, FENCED_SHARDS as usize);
        let delta = DeltaRecord {
            epoch: 2,
            week: 8,
            content_checksum: oracle_checksum(&expect),
            missing_shards: vec![],
            removed,
            added,
            removed_aliases: vec![],
            added_aliases: vec![],
        };
        let next = prev.apply_delta(&delta);
        prop_assert!(next.is_some(), "a well-formed delta was rejected");
        assert_matches_oracle(&next.unwrap(), &expect);
    }
}
