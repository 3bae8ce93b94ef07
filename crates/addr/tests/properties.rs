//! Property-based tests for the v6addr foundation types.

use proptest::prelude::*;
use std::net::Ipv6Addr;
use v6addr::ipv4_embed::Ipv4Encoding;
use v6addr::{iid_entropy, AddrSet, Iid, Mac, Prefix, PrefixMap};

proptest! {
    /// EUI-64 encode → decode is the identity on unicast MACs.
    #[test]
    fn eui64_round_trips(v in any::<u64>()) {
        let mac = Mac::from_u64(v & 0xffff_ffff_ffff);
        let iid = Iid::from_mac(mac);
        prop_assert!(iid.looks_like_eui64());
        prop_assert_eq!(iid.to_mac(), Some(mac));
    }

    /// Recovering a MAC then re-encoding reproduces the IID exactly.
    #[test]
    fn eui64_decode_then_encode(v in any::<u64>()) {
        let iid = Iid::new((v & 0xffff_ffff_0000_0000) | 0xff_fe00_0000 | (v & 0xff_ffff));
        prop_assert!(iid.looks_like_eui64());
        let mac = iid.to_mac().unwrap();
        prop_assert_eq!(Iid::from_mac(mac), iid);
    }

    /// Normalized entropy is always within [0, 1].
    #[test]
    fn entropy_in_unit_interval(v in any::<u64>()) {
        let h = iid_entropy(Iid::new(v));
        prop_assert!((0.0..=1.0).contains(&h));
    }

    /// Entropy is invariant under nibble permutation (it is a histogram
    /// property): reversing the nibble order preserves it.
    #[test]
    fn entropy_is_permutation_invariant(v in any::<u64>()) {
        let fwd = Iid::new(v);
        let mut rev = 0u64;
        for i in 0..16 {
            rev |= ((v >> (4 * i)) & 0xf) << (60 - 4 * i);
        }
        prop_assert!((iid_entropy(fwd) - iid_entropy(Iid::new(rev))).abs() < 1e-12);
    }

    /// A prefix contains exactly the addresses that share its top bits.
    #[test]
    fn prefix_contains_iff_masked_equal(bits in any::<u128>(), len in 0u8..=128, probe in any::<u128>()) {
        let p = Prefix::from_bits(bits, len);
        let addr = Ipv6Addr::from(probe);
        let expected = probe & Prefix::mask(len) == p.bits();
        prop_assert_eq!(p.contains(addr), expected);
    }

    /// Splitting a prefix yields disjoint covering subprefixes.
    #[test]
    fn prefix_split_partitions(bits in any::<u128>(), len in 0u8..=60, extra in 1u8..=8) {
        let p = Prefix::from_bits(bits, len);
        let sub = len + extra;
        let parts: Vec<Prefix> = p.split(sub).collect();
        prop_assert_eq!(parts.len() as u64, p.subprefix_count(sub));
        for w in parts.windows(2) {
            prop_assert!(w[0] < w[1]);
            prop_assert!(!w[0].contains_prefix(&w[1]));
        }
        for part in &parts {
            prop_assert!(p.contains_prefix(part));
        }
    }

    /// IPv4 embeddings decode back to what was encoded.
    #[test]
    fn ipv4_encodings_round_trip(v4 in 1u32..) {
        let addr = std::net::Ipv4Addr::from(v4);
        for enc in Ipv4Encoding::ALL {
            prop_assert_eq!(enc.decode(enc.encode(addr)), Some(addr));
        }
    }

    /// AddrSet set algebra obeys inclusion–exclusion on sizes.
    #[test]
    fn addrset_inclusion_exclusion(xs in prop::collection::vec(any::<u128>(), 0..200),
                                   ys in prop::collection::vec(any::<u128>(), 0..200)) {
        let x = AddrSet::from_bits(xs);
        let y = AddrSet::from_bits(ys);
        let i = x.intersection(&y);
        let u = x.union(&y);
        prop_assert_eq!(u.len() + i.len(), x.len() + y.len());
        prop_assert_eq!(i.len() as u64, x.intersection_count(&y));
        prop_assert_eq!(x.difference(&y).len() + i.len(), x.len());
        for addr in i.iter() {
            prop_assert!(x.contains(addr) && y.contains(addr));
        }
    }

    /// Aggregation counts sum to the set size and prefixes are distinct.
    #[test]
    fn addrset_aggregate_consistent(xs in prop::collection::vec(any::<u128>(), 0..200), len in 0u8..=128) {
        let s = AddrSet::from_bits(xs);
        let agg = s.aggregate(len);
        let total: u64 = agg.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(total as usize, s.len());
        prop_assert_eq!(agg.len() as u64, s.distinct_prefixes(len));
        for w in agg.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    /// `PrefixMap` agrees, after every mutation, with a linear scan over
    /// a plain list. Two input shapes: scattered prefixes up to /64, and
    /// interleaved inserts/removes of every length 0..=128 along three
    /// base addresses, so the prefixes nest into deep chains.
    #[test]
    fn trie_lpm_matches_bruteforce(entries in prop::collection::vec((any::<u128>(), 0u8..=64), 1..40),
                                   bases in (any::<u128>(), any::<u128>(), any::<u128>()),
                                   ops in prop::collection::vec((0usize..3, 0u8..=128, 0u8..4), 0..60),
                                   probe in any::<u128>()) {
        let bases = [bases.0, bases.1, bases.2];
        // (prefix, remove?) steps: the scattered shape, a guaranteed
        // ::/0 → /128 chain six deep, then the random chain edits.
        let mut steps: Vec<(Prefix, bool)> = entries
            .iter()
            .map(|&(bits, len)| (Prefix::from_bits(bits, len), false))
            .collect();
        steps.extend([0, 16, 32, 48, 64, 128].map(|len| (Prefix::from_bits(bases[0], len), false)));
        steps.extend(ops.iter().map(|&(b, len, kind)| (Prefix::from_bits(bases[b], len), kind == 0)));

        let mut probes = vec![probe];
        for b in bases {
            probes.extend([b, b ^ 1, b ^ (1 << 64), b ^ (1 << 100), !b]);
        }

        let mut m = PrefixMap::new();
        let mut model: Vec<(Prefix, usize)> = Vec::new();
        for (step, &(p, remove)) in steps.iter().enumerate() {
            let at = model.iter().position(|&(q, _)| q == p);
            if remove {
                prop_assert_eq!(m.remove(&p), at.map(|i| model.remove(i).1));
            } else {
                let old = at.map(|i| std::mem::replace(&mut model[i].1, step));
                if old.is_none() {
                    model.push((p, step));
                }
                prop_assert_eq!(m.insert(p, step), old);
            }

            prop_assert_eq!(m.len(), model.len());
            prop_assert_eq!(m.is_empty(), model.is_empty());
            let mut sorted = model.clone();
            sorted.sort_unstable();
            prop_assert_eq!(m.iter().map(|(q, &v)| (q, v)).collect::<Vec<_>>(), sorted);
            prop_assert_eq!(m.get(&p).copied(), (!remove).then_some(step));

            let scan = |target: &Prefix| {
                model
                    .iter()
                    .filter(|(q, _)| q.contains_prefix(target))
                    .max_by_key(|(q, _)| q.len())
                    .copied()
            };
            for &x in &probes {
                let addr = Ipv6Addr::from(x);
                let expect = scan(&Prefix::new(addr, 128));
                prop_assert_eq!(m.longest_match(addr).map(|(q, &v)| (q, v)), expect);
                prop_assert_eq!(m.covers(addr), expect.is_some());
            }
            let targets = [0, p.len() / 2, p.len()].map(|len| p.truncate(len));
            for target in targets.into_iter().chain([Prefix::from_bits(probe, p.len())]) {
                prop_assert_eq!(m.covering_prefix(&target).map(|(q, &v)| (q, v)), scan(&target));
            }
        }
        // Bulk construction lands on the same map as the edits did.
        let bulk: PrefixMap<usize> = model.iter().copied().collect();
        prop_assert_eq!(bulk.iter().collect::<Vec<_>>(), m.iter().collect::<Vec<_>>());
        for &x in &probes {
            prop_assert_eq!(bulk.longest_match(x.into()), m.longest_match(x.into()));
        }
    }

    /// `longest_match_span` is exact: every sampled address of
    /// `[addr, until]` gets `addr`'s longest match and `until + 1` does
    /// not. On a flat table (scattered prefixes up to /64) and a nested
    /// one (chains along two bases, and one covering the top of the
    /// space), probed at random, at `::` and `u128::MAX` (the gaps
    /// before the first and after the last entry, where the table leaves
    /// them), and on both sides of every stored prefix's edges.
    #[test]
    fn lpm_span_is_exact(scattered in prop::collection::vec((any::<u128>(), 0u8..=64), 0..30),
                         bases in (any::<u128>(), any::<u128>()),
                         chain in prop::collection::vec((0usize..2, 1u8..=128), 0..20),
                         probes in prop::collection::vec(any::<u128>(), 8),
                         offsets in prop::collection::vec(any::<u128>(), 8)) {
        let flat: PrefixMap<usize> = scattered
            .iter()
            .enumerate()
            .map(|(i, &(bits, len))| (Prefix::from_bits(bits, len), i))
            .collect();
        let nested: PrefixMap<usize> = chain
            .iter()
            .map(|&(b, len)| Prefix::from_bits([bases.0, bases.1][b], len))
            .chain([Prefix::from_bits(u128::MAX, 112)])
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        for map in [&flat, &nested] {
            let mut addrs = probes.clone();
            addrs.extend([0, u128::MAX]);
            for (p, _) in map.iter() {
                let (lo, hi) = (p.bits(), u128::from(p.last()));
                addrs.extend([lo, lo.wrapping_sub(1), hi, hi.wrapping_add(1)]);
            }
            for &addr in &addrs {
                let (found, until) = map.longest_match_span(addr.into());
                let until = u128::from(until);
                prop_assert_eq!(found, map.longest_match(addr.into()));
                prop_assert!(until >= addr);
                let width = until - addr;
                let mut inside = vec![addr, until, addr + width / 2];
                inside.extend(offsets.iter().map(|&r| addr + r % width.saturating_add(1)));
                for x in inside {
                    prop_assert_eq!(map.longest_match(x.into()), found, "{:#x} in span of {:#x}", x, addr);
                }
                if until != u128::MAX {
                    prop_assert_ne!(map.longest_match((until + 1).into()), found);
                }
            }
        }
    }

    /// MAC NIC offsets invert correctly within an OUI.
    #[test]
    fn mac_offset_inverts(base in any::<u64>(), off in -0x7f_ffffi64..=0x80_0000) {
        let mac = Mac::from_u64(base & 0xffff_ffff_ffff);
        let shifted = mac.wrapping_add_nic(off);
        prop_assert_eq!(shifted.oui(), mac.oui());
        let recovered = mac.nic_offset_to(shifted).unwrap();
        prop_assert_eq!(mac.wrapping_add_nic(recovered), shifted);
    }
}
