//! Target generation for active IPv6 campaigns.
//!
//! Brute force is impossible in IPv6 (§1), so active efforts probe where
//! addresses are *predictable*: low IIDs in routed space, the `::1` of
//! every routed /48 (CAIDA's methodology, §3), and candidates emitted by
//! target-generation algorithms trained on seed hitlists (§2.2). The TGA
//! here is a deliberately simple Entropy/IP-flavoured pattern model — its
//! systematic failure on high-entropy client space is exactly the
//! phenomenon the paper studies.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use v6addr::{Iid, Prefix};
use v6netsim::Asn;

/// The classic operator-assigned probe IIDs, lowest first.
pub fn low_iid_targets(prefix: &Prefix, count: u64) -> Vec<Ipv6Addr> {
    (1..=count).map(|i| prefix.offset(i as u128)).collect()
}

/// CAIDA routed-/48 methodology (§3): split every routed prefix of length
/// ≤ /48 into /48s and probe each `::1`.
///
/// `stride` subsamples the /48s (probe every `stride`-th) so scaled-down
/// runs stay tractable; `stride = 1` is the full methodology.
pub fn caida_routed48_targets(routed: &[(Prefix, Asn)], stride: u64) -> Vec<Ipv6Addr> {
    let stride = stride.max(1);
    let mut out = Vec::new();
    for (p, _) in routed {
        if p.len() > 48 {
            // Longer than /48: probe its ::1 directly, no splitting.
            out.push(p.offset(1));
            continue;
        }
        let n = p.subprefix_count(48);
        let mut i = 0u64;
        while i < n {
            out.push(p.subprefix(48, i).offset(1));
            i += stride;
        }
    }
    out
}

/// A simple pattern-mining target generation algorithm.
///
/// Learns two marginals from seed addresses — frequent upper-64 routing
/// prefixes and frequent IIDs — and emits their cross product. Low-byte
/// server/router IIDs recur across prefixes and are found; ephemeral
/// random client IIDs never recur and are not. (Richer TGAs — 6Gen,
/// 6Tree, 6GAN — share this failure mode on random IIDs, §2.2.)
#[derive(Debug, Clone, Default)]
pub struct PatternTga {
    upper_counts: HashMap<u64, u64>,
    iid_counts: HashMap<u64, u64>,
    seeds: u64,
}

impl PatternTga {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains on one seed address.
    pub fn observe(&mut self, addr: Ipv6Addr) {
        *self.upper_counts.entry(v6addr::upper64(addr)).or_insert(0) += 1;
        *self
            .iid_counts
            .entry(Iid::from_addr(addr).as_u64())
            .or_insert(0) += 1;
        self.seeds += 1;
    }

    /// Trains on many seeds.
    pub fn observe_all<I: IntoIterator<Item = Ipv6Addr>>(&mut self, seeds: I) {
        for a in seeds {
            self.observe(a);
        }
    }

    /// Number of seed addresses observed.
    pub fn seed_count(&self) -> u64 {
        self.seeds
    }

    /// Emits up to `budget` candidate addresses: the cross product of the
    /// most frequent uppers and the most *recurring* IIDs (an IID seen in
    /// only one seed carries no cross-prefix predictive power and is
    /// skipped).
    pub fn generate(&self, budget: usize) -> Vec<Ipv6Addr> {
        let mut uppers: Vec<(u64, u64)> = self.upper_counts.iter().map(|(&k, &v)| (k, v)).collect();
        uppers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut iids: Vec<(u64, u64)> = self
            .iid_counts
            .iter()
            .filter(|&(_, &c)| c >= 2)
            .map(|(&k, &v)| (k, v))
            .collect();
        iids.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        if iids.is_empty() || uppers.is_empty() {
            return Vec::new();
        }
        // Balance the two dimensions around √budget.
        let side = (budget as f64).sqrt().ceil() as usize;
        let take_u = uppers.len().min(side.max(budget / iids.len().max(1)));
        let mut out = Vec::with_capacity(budget);
        'outer: for &(u, _) in uppers.iter().take(take_u.max(1)) {
            for &(i, _) in iids.iter() {
                out.push(v6addr::join(u, Iid::new(i)));
                if out.len() >= budget {
                    break 'outer;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn low_iids() {
        let t = low_iid_targets(&p("2a00:1::/48"), 3);
        assert_eq!(
            t,
            vec![
                "2a00:1::1".parse::<Ipv6Addr>().unwrap(),
                "2a00:1::2".parse().unwrap(),
                "2a00:1::3".parse().unwrap(),
            ]
        );
    }

    #[test]
    fn caida_targets_split_and_stride() {
        let routed = vec![(p("2a00:1::/32"), Asn(1))];
        let full = caida_routed48_targets(&routed, 1);
        assert_eq!(full.len(), 1 << 16);
        assert_eq!(full[0], "2a00:1::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(full[1], "2a00:1:1::1".parse::<Ipv6Addr>().unwrap());
        let sampled = caida_routed48_targets(&routed, 256);
        assert_eq!(sampled.len(), 256);
        // Every sampled target is a ::1.
        for a in &sampled {
            assert_eq!(u128::from(*a) & 0xffff_ffff_ffff_ffff, 1);
        }
    }

    #[test]
    fn caida_targets_longer_than_48() {
        let routed = vec![(p("2a00:1:2:3::/64"), Asn(1))];
        let t = caida_routed48_targets(&routed, 1);
        assert_eq!(t, vec!["2a00:1:2:3::1".parse::<Ipv6Addr>().unwrap()]);
    }

    #[test]
    fn tga_finds_recurring_low_iids() {
        let mut tga = PatternTga::new();
        // Servers at ::1/::2 across three prefixes; one random client.
        for upper in [
            0x2a00_0001_0000_0000u64,
            0x2a00_0002_0000_0000,
            0x2a00_0003_0000_0000,
        ] {
            tga.observe(v6addr::join(upper, Iid::new(1)));
            tga.observe(v6addr::join(upper, Iid::new(2)));
        }
        tga.observe(v6addr::join(
            0x2a00_0001_0000_0000,
            Iid::new(0xdead_beef_cafe_f00d),
        ));
        let cands = tga.generate(100);
        // The cross product must predict ::1 in prefix 3 and ::2 in 1, etc.
        assert!(cands.contains(&v6addr::join(0x2a00_0003_0000_0000, Iid::new(2))));
        // And must never emit the random one-off IID.
        assert!(!cands
            .iter()
            .any(|a| Iid::from_addr(*a).as_u64() == 0xdead_beef_cafe_f00d));
    }

    #[test]
    fn tga_empty_without_recurrence() {
        let mut tga = PatternTga::new();
        // All IIDs unique → nothing recurs → no candidates.
        for i in 0..50u64 {
            tga.observe(v6addr::join(0x2a00_0001_0000_0000, Iid::new(0x1000 + i)));
        }
        assert!(tga.generate(100).is_empty());
        assert_eq!(tga.seed_count(), 50);
    }

    #[test]
    fn tga_respects_budget() {
        let mut tga = PatternTga::new();
        for u in 0..20u64 {
            for i in 1..=20u64 {
                tga.observe(v6addr::join(0x2a00_0000_0000_0000 + (u << 32), Iid::new(i)));
            }
        }
        assert!(tga.generate(37).len() <= 37);
        assert!(!tga.generate(37).is_empty());
    }
}
