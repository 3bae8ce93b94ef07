//! Property-based tests for the core hitlist data structures.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use v6hitlist::cdf::Cdf;
use v6hitlist::{Dataset, Observation, Release48};
use v6netsim::SimTime;

fn obs_strategy() -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec(
        (any::<u128>(), 0u64..20_000_000).prop_map(|(a, t)| Observation {
            addr: Ipv6Addr::from(a),
            t: SimTime(t),
        }),
        0..300,
    )
}

/// Runs of observations over a pool of at most 8 addresses: each run is
/// one address seen 1–4 times at unordered times, so addresses repeat in
/// interleaved runs and the build's merge of per-run partials is
/// exercised. Up to 1 500 runs, so the partials also cross the radix
/// sort's comparison-sort cutoff.
fn pooled_runs_strategy() -> impl Strategy<Value = Vec<Observation>> {
    (
        prop::collection::vec(any::<u128>(), 1..=8),
        prop::collection::vec(
            (0usize..8, prop::collection::vec(0u64..1_000, 1..=4)),
            0..1_500,
        ),
    )
        .prop_map(|(pool, runs)| {
            runs.into_iter()
                .flat_map(|(i, ts)| {
                    let addr = Ipv6Addr::from(pool[i % pool.len()]);
                    ts.into_iter().map(move |t| Observation {
                        addr,
                        t: SimTime(t),
                    })
                })
                .collect()
        })
}

proptest! {
    /// Folding runs and merging their partials gives exactly the
    /// per-address (first, last, count) of a map built one observation
    /// at a time.
    #[test]
    fn dataset_merges_repeated_runs(obs in pooled_runs_strategy()) {
        let mut oracle: BTreeMap<u128, (u64, u64, u64)> = BTreeMap::new();
        for o in &obs {
            let t = o.t.as_secs();
            let e = oracle.entry(u128::from(o.addr)).or_insert((t, t, 0));
            e.0 = e.0.min(t);
            e.1 = e.1.max(t);
            e.2 += 1;
        }
        let d = Dataset::from_observations("p", obs.clone());
        prop_assert_eq!(d.observation_count(), obs.len() as u64);
        let got: Vec<(u128, (u64, u64, u64))> = (d.records().iter())
            .map(|r| (u128::from(r.addr), (r.first.as_secs(), r.last.as_secs(), r.count)))
            .collect();
        prop_assert_eq!(got, oracle.into_iter().collect::<Vec<_>>());
    }

    /// Dataset aggregation conserves observation counts and orders
    /// first/last correctly.
    #[test]
    fn dataset_aggregation_invariants(obs in obs_strategy()) {
        let n = obs.len() as u64;
        let d = Dataset::from_observations("p", obs.clone());
        prop_assert_eq!(d.observation_count(), n);
        let total: u64 = d.records().iter().map(|r| r.count).sum();
        prop_assert_eq!(total, n);
        for r in d.records() {
            prop_assert!(r.first <= r.last);
            // first/last must be actual observation times of this address.
            prop_assert!(obs
                .iter()
                .any(|o| o.addr == r.addr && o.t == r.first));
            prop_assert!(obs
                .iter()
                .any(|o| o.addr == r.addr && o.t == r.last));
        }
        // Records are sorted and unique by address.
        for w in d.records().windows(2) {
            prop_assert!(u128::from(w[0].addr) < u128::from(w[1].addr));
        }
    }

    /// Slicing never invents records and keeps exactly the overlapping ones.
    #[test]
    fn dataset_slice_window(obs in obs_strategy(), from in 0u64..20_000_000, len in 1u64..10_000_000) {
        let d = Dataset::from_observations("p", obs);
        let s = d.slice("s", SimTime(from), SimTime(from + len));
        prop_assert!(s.len() <= d.len());
        for r in s.records() {
            let orig = d.record(r.addr).expect("sliced record must exist");
            prop_assert_eq!(orig.first, r.first);
            prop_assert!(r.first.as_secs() < from + len);
            prop_assert!(r.last.as_secs() >= from);
        }
    }

    /// Common-address counts are symmetric and bounded.
    #[test]
    fn dataset_common_symmetric(a in obs_strategy(), b in obs_strategy()) {
        let x = Dataset::from_observations("x", a);
        let y = Dataset::from_observations("y", b);
        let c = x.common_addresses(&y);
        prop_assert_eq!(c, y.common_addresses(&x));
        prop_assert!(c as usize <= x.len().min(y.len()));
        let c48 = x.common_48s(&y);
        prop_assert_eq!(c48, y.common_48s(&x));
        prop_assert!(c48 <= x.distinct_48s().min(y.distinct_48s()));
        // Shared addresses imply shared /48s.
        prop_assert!(c == 0 || c48 > 0);
    }

    /// The CDF is a valid distribution function: monotone, bounded, and
    /// consistent with quantiles.
    #[test]
    fn cdf_is_monotone(samples in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let c = Cdf::new(samples.clone());
        let lo = c.min().unwrap();
        let hi = c.max().unwrap();
        prop_assert_eq!(c.fraction_at_or_below(lo - 1.0), 0.0);
        prop_assert_eq!(c.fraction_at_or_below(hi), 1.0);
        let mut prev = 0.0;
        for (_, y) in c.series(lo, hi, 17) {
            prop_assert!(y >= prev - 1e-12);
            prev = y;
        }
        // Median splits mass: at least half at-or-below.
        let m = c.median().unwrap();
        prop_assert!(c.fraction_at_or_below(m) >= 0.5);
    }

    /// Quantiles are order statistics: q=0 is min, q=1 is max, monotone.
    #[test]
    fn cdf_quantiles_ordered(samples in prop::collection::vec(-1e6f64..1e6, 1..100),
                             q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let c = Cdf::new(samples);
        prop_assert_eq!(c.quantile(0.0), c.min());
        prop_assert_eq!(c.quantile(1.0), c.max());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(c.quantile(lo).unwrap() <= c.quantile(hi).unwrap());
    }

    /// The /48 release never leaks host bits and covers exactly the /48s
    /// of its input.
    #[test]
    fn release_invariant(addrs in prop::collection::vec(any::<u128>(), 0..300)) {
        let set = v6addr::AddrSet::from_bits(addrs.clone());
        let r = Release48::from_addr_set("p", &set);
        prop_assert!(r.verify_privacy_invariant());
        prop_assert_eq!(r.len() as u64, set.distinct_prefixes(48));
        for a in &addrs {
            let p48 = v6addr::Prefix::from_bits(*a, 48);
            prop_assert!(r.prefixes.binary_search(&p48).is_ok());
        }
    }
}
