//! Property-based tests for the active-measurement tooling.

use proptest::prelude::*;
use std::net::Ipv6Addr;

use v6netsim::{AsKind, ProbeOutcome, SimTime, World, WorldConfig};
use v6scan::{
    scan, trace, AliasDetector, AliasList, FnProber, IcmpError, Icmpv6Message, WorldProber,
    YarrpConfig, Zmap6Config,
};

fn addr(bits: u128) -> Ipv6Addr {
    Ipv6Addr::from(bits)
}

proptest! {
    /// ICMPv6 echo messages round-trip through encode/decode for any
    /// ident/seq/payload and any address pair.
    #[test]
    fn icmp_echo_round_trip(
        src in any::<u128>(),
        dst in any::<u128>(),
        ident in any::<u16>(),
        seq in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (s, d) = (addr(src), addr(dst));
        let m = Icmpv6Message::EchoRequest {
            ident,
            seq,
            payload: bytes::Bytes::from(payload),
        };
        let wire = m.encode(s, d);
        prop_assert_eq!(Icmpv6Message::decode(s, d, &wire).unwrap(), m);
    }

    /// Any single-bit corruption of an encoded message is caught by the
    /// checksum (or changes it into another *valid-checksum* message,
    /// which one's-complement arithmetic makes impossible for one flip).
    #[test]
    fn icmp_checksum_catches_bit_flips(
        src in any::<u128>(),
        dst in any::<u128>(),
        payload in prop::collection::vec(any::<u8>(), 1..32),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let (s, d) = (addr(src), addr(dst));
        let m = Icmpv6Message::EchoRequest {
            ident: 7,
            seq: 9,
            payload: bytes::Bytes::from(payload),
        };
        let mut wire = m.encode(s, d).to_vec();
        let idx = flip_byte % wire.len();
        wire[idx] ^= 1 << flip_bit;
        match Icmpv6Message::decode(s, d, &wire) {
            Err(IcmpError::BadChecksum { .. }) | Err(IcmpError::UnsupportedType(_)) => {}
            Err(IcmpError::Truncated) => prop_assert!(false, "length did not change"),
            Ok(decoded) => {
                // Flipping a bit of the type byte between 128↔129 keeps
                // the checksum valid only if the checksum field was also
                // what we flipped; any surviving decode must differ from
                // the original message.
                prop_assert_ne!(decoded, m, "corruption undetected at byte {}", idx);
            }
        }
    }

    /// The decoder never panics on arbitrary input bytes.
    #[test]
    fn icmp_decode_total(src in any::<u128>(), dst in any::<u128>(),
                         bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = Icmpv6Message::decode(addr(src), addr(dst), &bytes);
    }

    /// The scanner probes every target exactly once, in an order that is
    /// a permutation of the input, and reports exactly the responsive
    /// subset — with the same responsive list and statistics at any
    /// thread count.
    #[test]
    fn scanner_covers_targets_exactly_once(
        n in 1usize..400,
        modulus in 2u128..7,
        threads in 1usize..5,
    ) {
        let targets: Vec<Ipv6Addr> = (0..n as u128)
            .map(|i| addr((0x2a01u128 << 112) | (i * 0x9e37) | i << 64))
            .collect();
        let probed = std::sync::Mutex::new(Vec::new());
        let prober = FnProber::new(addr(1), |dst, _, _| {
            probed.lock().unwrap().push(dst);
            if u128::from(dst) % modulus == 0 {
                ProbeOutcome::EchoReply { from: dst }
            } else {
                ProbeOutcome::NoResponse
            }
        });
        let r = scan(&prober, &targets, &Zmap6Config::default(), threads);
        let mut got = probed.lock().unwrap().clone();
        got.sort_unstable();
        let mut want = targets.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        let expected_hits = targets.iter().filter(|a| u128::from(**a) % modulus == 0).count();
        prop_assert_eq!(r.responsive.len(), expected_hits);
        prop_assert_eq!(r.stats.validated, expected_hits as u64);
        let one = scan(&prober, &targets, &Zmap6Config::default(), 1);
        prop_assert_eq!(r.responsive, one.responsive);
        prop_assert_eq!(r.stats, one.stats);
    }

    /// An alias list contains an address iff some listed prefix covers it.
    #[test]
    fn alias_list_cover_semantics(
        prefixes in prop::collection::vec((any::<u128>(), 16u8..64), 1..20),
        probe in any::<u128>(),
    ) {
        let list = AliasList::from_prefixes(
            prefixes.iter().map(|&(b, l)| v6addr::Prefix::from_bits(b, l)),
        );
        let a = addr(probe);
        let expected = prefixes
            .iter()
            .any(|&(b, l)| v6addr::Prefix::from_bits(b, l).contains(a));
        prop_assert_eq!(list.contains(a), expected);
    }
}

#[test]
fn fnprober_time_is_passed_through() {
    // Plain test: the prober must receive the scanner's paced timestamps.
    let seen = std::sync::Mutex::new(Vec::new());
    let prober = FnProber::new(addr(1), |_, _, t| {
        seen.lock().unwrap().push(t);
        ProbeOutcome::NoResponse
    });
    let targets: Vec<Ipv6Addr> = (0..10u128).map(|i| addr(i << 64)).collect();
    let cfg = Zmap6Config {
        rate_pps: 2,
        start: SimTime(50),
        ..Default::default()
    };
    scan(&prober, &targets, &cfg, 1);
    let ts = seen.lock().unwrap();
    assert!(ts.iter().all(|t| (50..56).contains(&t.as_secs())));
}

#[test]
fn trace_and_sweep_agree_across_thread_counts() {
    let w = World::build(WorldConfig::tiny(), 55);
    let prober = WorldProber::new(&w, 0);
    let targets: Vec<Ipv6Addr> = w
        .ases
        .iter()
        .filter(|a| a.info.kind == AsKind::EyeballIsp)
        .take(8)
        .flat_map(|a| (0..4).map(move |i| a.customer33().subprefix(48, i).offset(1)))
        .collect();
    let cfg = YarrpConfig::default();
    let mut candidates = w.aliased_prefixes();
    for a in w.ases.iter().take(8) {
        candidates.push(a.customer33().subprefix(48, 3));
    }
    let det = AliasDetector::default();

    let one = trace(&prober, &targets, &cfg, 1);
    let aliased = det.sweep(&prober, &candidates, SimTime(0), 1);
    assert!(!one.hops.is_empty() && !aliased.is_empty());
    for threads in [2, 4] {
        let r = trace(&prober, &targets, &cfg, threads);
        assert_eq!(r.hops, one.hops, "hops at {threads} threads");
        assert_eq!(r.reached, one.reached, "reached at {threads} threads");
        assert_eq!((r.sent, r.discarded), (one.sent, one.discarded));
        let found = det.sweep(&prober, &candidates, SimTime(0), threads);
        assert_eq!(found, aliased, "aliases at {threads} threads");
    }
}
