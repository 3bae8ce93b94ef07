//! Aliased-prefix detection and filtering (§2.1, §4.2).
//!
//! In IPv6 a single middlebox frequently answers for an *entire prefix*
//! ("aliasing"), so a naive scanner would record millions of phantom
//! hosts. The IPv6 Hitlist project detects aliased prefixes by probing
//! several pseudo-random addresses inside a candidate prefix — if they
//! all answer, no plausible set of real hosts explains it — and publishes
//! an alias list that consumers filter against. This module implements
//! both the detector and the list.

use std::net::Ipv6Addr;

use v6addr::{Prefix, PrefixMap};
use v6netsim::rng::Rng;
use v6netsim::SimTime;

use crate::prober::Prober;

/// Alias-detection parameters (defaults follow the Hitlist methodology:
/// 16 pseudo-random probes, all must answer).
#[derive(Debug, Clone)]
pub struct AliasDetector {
    /// Pseudo-random addresses probed per candidate prefix.
    pub probes_per_prefix: u32,
    /// Minimum echo replies to declare the prefix aliased.
    pub threshold: u32,
    /// RNG key for address selection.
    pub seed: u64,
}

impl Default for AliasDetector {
    fn default() -> Self {
        AliasDetector {
            probes_per_prefix: 16,
            threshold: 16,
            seed: 0x0a11_a5ed,
        }
    }
}

impl AliasDetector {
    /// Probes a candidate prefix and reports whether it is aliased.
    pub fn detect<P: Prober>(&self, prober: &P, prefix: &Prefix, t: SimTime) -> bool {
        let mut rng = Rng::new(self.seed ^ prefix.bits() as u64 ^ (prefix.len() as u64) << 56);
        let host_bits = 128 - prefix.len() as u32;
        let mut hits = 0;
        for _ in 0..self.probes_per_prefix {
            let offset = if host_bits >= 128 {
                rng.next_u128()
            } else {
                rng.next_u128() & ((1u128 << host_bits) - 1)
            };
            let addr = prefix.offset(offset);
            if prober.probe(addr, 64, t).is_echo() {
                hits += 1;
            }
        }
        hits >= self.threshold
    }

    /// Runs detection over many candidates, returning the aliased ones,
    /// with per-candidate detection sharded across `threads` workers.
    /// Detection of each candidate is a pure function of `(detector,
    /// prefix, t)`, and the result preserves candidate order, so the
    /// output is bit-identical at any thread count.
    pub fn sweep<P: Prober + Sync>(
        &self,
        prober: &P,
        candidates: &[Prefix],
        t: SimTime,
        threads: usize,
    ) -> Vec<Prefix> {
        // Cost hint: one detection probes 16 pseudo-random addresses in
        // the candidate prefix (~1 µs each with encode/decode).
        let cost = v6par::Cost::per_item_ns(16_000).labeled("scan.alias");
        let verdicts =
            v6par::par_map_cost(threads, candidates, cost, |_, p| self.detect(prober, p, t));
        candidates
            .iter()
            .zip(verdicts)
            .filter_map(|(p, aliased)| aliased.then_some(*p))
            .collect()
    }
}

/// A published alias list, used to filter scan targets and results.
#[derive(Debug, Clone, Default)]
pub struct AliasList {
    map: PrefixMap<()>,
}

impl AliasList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from known aliased prefixes.
    pub fn from_prefixes<I: IntoIterator<Item = Prefix>>(prefixes: I) -> Self {
        let mut map = PrefixMap::new();
        for p in prefixes {
            map.insert(p, ());
        }
        AliasList { map }
    }

    /// Adds a prefix.
    pub fn insert(&mut self, p: Prefix) {
        self.map.insert(p, ());
    }

    /// Number of listed prefixes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True when `addr` falls in a listed aliased prefix.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.map.covers(addr)
    }

    /// True when `prefix` is inside (or equal to) a listed prefix.
    pub fn covers_prefix(&self, prefix: &Prefix) -> bool {
        self.map.covering_prefix(prefix).is_some()
    }

    /// Filters aliased addresses out of a responsive set — the "best
    /// practice first step" §4.2 describes.
    pub fn filter_addresses(&self, addrs: &[Ipv6Addr]) -> Vec<Ipv6Addr> {
        addrs
            .iter()
            .copied()
            .filter(|a| !self.contains(*a))
            .collect()
    }

    /// Iterates listed prefixes.
    pub fn prefixes(&self) -> Vec<Prefix> {
        self.map.iter().map(|(p, _)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::{FnProber, WorldProber};
    use v6netsim::{ProbeOutcome, World, WorldConfig};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn detects_fully_responsive_prefix() {
        let aliased = p("2a00:1:8000::/48");
        let prober = FnProber::new("2a00:ffff::1".parse().unwrap(), move |dst, _, _| {
            if aliased.contains(dst) {
                ProbeOutcome::EchoReply { from: dst }
            } else {
                ProbeOutcome::NoResponse
            }
        });
        let det = AliasDetector::default();
        assert!(det.detect(&prober, &p("2a00:1:8000::/48"), SimTime(0)));
        assert!(!det.detect(&prober, &p("2a00:2:8000::/48"), SimTime(0)));
    }

    #[test]
    fn partial_responders_are_not_aliased() {
        // A /64 with "many" live hosts still only answers on a measure-zero
        // subset of 2^64; random probes miss them.
        let prober = FnProber::new("2a00:ffff::1".parse().unwrap(), |dst, _, _| {
            if u128::from(dst) & 0xffff_ffff_ffff_ff00 == 0 {
                ProbeOutcome::EchoReply { from: dst }
            } else {
                ProbeOutcome::NoResponse
            }
        });
        let det = AliasDetector::default();
        assert!(!det.detect(&prober, &p("::/64"), SimTime(0)));
    }

    #[test]
    fn sweep_finds_ground_truth_aliases() {
        let w = World::build(WorldConfig::tiny(), 55);
        let prober = WorldProber::new(&w, 0);
        let truth = w.aliased_prefixes();
        assert!(!truth.is_empty());
        // Candidates: all ground-truth aliases + some clean /48s.
        let mut candidates = truth.clone();
        for a in w.ases.iter().take(4) {
            candidates.push(a.customer33().subprefix(48, 3));
        }
        let det = AliasDetector::default();
        let found = det.sweep(&prober, &candidates, SimTime(0), 1);
        for t in &truth {
            assert!(found.contains(t), "missed ground-truth alias {t}");
        }
        // Clean home-pool /48s may *also* legitimately detect as aliased
        // when the AS fronts its client ranges (clients_aliased); others
        // must not.
        for c in &candidates[truth.len()..] {
            if found.contains(c) {
                let ai = w.as_index_of(c.network()).unwrap();
                assert!(
                    w.ases[ai as usize].info.clients_aliased(),
                    "clean prefix {c} mis-detected"
                );
            }
        }
    }

    #[test]
    fn alias_list_filters() {
        let list = AliasList::from_prefixes([p("2a00:1:8000::/48")]);
        assert_eq!(list.len(), 1);
        assert!(list.contains("2a00:1:8000::42".parse().unwrap()));
        assert!(!list.contains("2a00:1:8001::42".parse().unwrap()));
        assert!(list.covers_prefix(&p("2a00:1:8000:1::/64")));
        assert!(!list.covers_prefix(&p("2a00:1::/32")));
        let addrs: Vec<Ipv6Addr> = vec![
            "2a00:1:8000::1".parse().unwrap(),
            "2a00:9::1".parse().unwrap(),
        ];
        let kept = list.filter_addresses(&addrs);
        assert_eq!(kept, vec!["2a00:9::1".parse::<Ipv6Addr>().unwrap()]);
    }

    #[test]
    fn threshold_below_probe_count() {
        // A flaky alias responder (90% response rate) is caught with a
        // relaxed threshold but missed by the strict all-must-answer rule.
        let n = std::sync::atomic::AtomicU32::new(0);
        let prober = FnProber::new("2a00:ffff::1".parse().unwrap(), move |dst, _, _| {
            let i = n.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i % 10 == 9 {
                ProbeOutcome::NoResponse
            } else {
                ProbeOutcome::EchoReply { from: dst }
            }
        });
        let strict = AliasDetector::default();
        assert!(!strict.detect(&prober, &p("2a00:1::/48"), SimTime(0)));
        let relaxed = AliasDetector {
            threshold: 12,
            ..Default::default()
        };
        assert!(relaxed.detect(&prober, &p("2a00:1::/48"), SimTime(0)));
    }
}
