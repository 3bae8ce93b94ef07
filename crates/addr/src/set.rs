//! Compact sorted sets of IPv6 addresses.
//!
//! Hitlist comparisons (Table 1) need set algebra over millions of
//! addresses: sizes, pairwise intersections, distinct /48 and /64 counts,
//! and per-prefix densities. A sorted `Vec<u128>` beats a hash set here —
//! half the memory, cache-friendly merge intersections, and prefix
//! aggregation is a single linear pass.

use std::net::Ipv6Addr;

use crate::prefix::Prefix;

/// An immutable, deduplicated, sorted set of IPv6 addresses.
///
/// ```
/// use v6addr::AddrSet;
///
/// let set: AddrSet = ["2001:db8:1::1", "2001:db8:1::2", "2001:db8:2::1"]
///     .iter()
///     .map(|s| s.parse().unwrap())
///     .collect();
/// assert_eq!(set.len(), 3);
/// assert_eq!(set.distinct_prefixes(48), 2);
/// assert_eq!(set.density(48), 1.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddrSet {
    addrs: Vec<u128>,
}

impl AddrSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from any collection of addresses (sorts + dedups).
    pub fn from_addrs<I: IntoIterator<Item = Ipv6Addr>>(iter: I) -> Self {
        let mut addrs: Vec<u128> = iter.into_iter().map(u128::from).collect();
        addrs.sort_unstable();
        addrs.dedup();
        AddrSet { addrs }
    }

    /// Builds a set from raw 128-bit values (sorts + dedups).
    pub fn from_bits(mut addrs: Vec<u128>) -> Self {
        addrs.sort_unstable();
        addrs.dedup();
        AddrSet { addrs }
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.addrs.binary_search(&u128::from(addr)).is_ok()
    }

    /// Iterates addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.addrs.iter().map(|&b| Ipv6Addr::from(b))
    }

    /// The raw sorted bits (ascending, deduplicated).
    pub fn as_bits(&self) -> &[u128] {
        &self.addrs
    }

    /// Counts addresses present in both sets (linear merge walk).
    pub fn intersection_count(&self, other: &AddrSet) -> u64 {
        // Walk the smaller set with binary search when sizes are wildly
        // asymmetric (common: 10^7-address corpus vs 10^4 hitlist),
        // otherwise do a linear merge.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if large.len() / (small.len().max(1)) > 64 {
            return small
                .addrs
                .iter()
                .filter(|a| large.addrs.binary_search(a).is_ok())
                .count() as u64;
        }
        let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
        while i < small.addrs.len() && j < large.addrs.len() {
            match small.addrs[i].cmp(&large.addrs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// The intersection as a new set.
    pub fn intersection(&self, other: &AddrSet) -> AddrSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.addrs.len() && j < other.addrs.len() {
            match self.addrs[i].cmp(&other.addrs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.addrs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        AddrSet { addrs: out }
    }

    /// The union as a new set.
    pub fn union(&self, other: &AddrSet) -> AddrSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.addrs.len() && j < other.addrs.len() {
            match self.addrs[i].cmp(&other.addrs[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.addrs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.addrs[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.addrs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.addrs[i..]);
        out.extend_from_slice(&other.addrs[j..]);
        AddrSet { addrs: out }
    }

    /// Addresses in `self` but not `other`.
    pub fn difference(&self, other: &AddrSet) -> AddrSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.addrs.len() {
            if j >= other.addrs.len() {
                out.extend_from_slice(&self.addrs[i..]);
                break;
            }
            match self.addrs[i].cmp(&other.addrs[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.addrs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        AddrSet { addrs: out }
    }

    /// Counts distinct enclosing prefixes of length `len` (one pass).
    ///
    /// `distinct_prefixes(48)` is Table 1's "/48s" column.
    pub fn distinct_prefixes(&self, len: u8) -> u64 {
        let mask = Prefix::mask(len);
        let mut n = 0u64;
        let mut last: Option<u128> = None;
        for &a in &self.addrs {
            let p = a & mask;
            if last != Some(p) {
                n += 1;
                last = Some(p);
            }
        }
        n
    }

    /// Aggregates to `(prefix, address count)` pairs at length `len`,
    /// in ascending prefix order.
    ///
    /// Table 1's "Avg. Addrs per /48" is `len() / aggregate(48).len()`;
    /// the public /48-level data release (§3 Ethics) is the prefix list.
    pub fn aggregate(&self, len: u8) -> Vec<(Prefix, u64)> {
        let mask = Prefix::mask(len);
        let mut out: Vec<(Prefix, u64)> = Vec::new();
        for &a in &self.addrs {
            let p = a & mask;
            match out.last_mut() {
                Some((last, n)) if last.bits() == p => *n += 1,
                _ => out.push((Prefix::from_bits(p, len), 1)),
            }
        }
        out
    }

    /// Mean addresses per distinct prefix of length `len`; 0.0 when empty.
    pub fn density(&self, len: u8) -> f64 {
        let p = self.distinct_prefixes(len);
        if p == 0 {
            0.0
        } else {
            self.len() as f64 / p as f64
        }
    }

    /// Addresses falling inside `prefix`, as a slice of the sorted bits.
    pub fn within(&self, prefix: &Prefix) -> &[u128] {
        let lo = prefix.bits();
        let hi = u128::from(prefix.last());
        let start = self.addrs.partition_point(|&a| a < lo);
        let end = self.addrs.partition_point(|&a| a <= hi);
        &self.addrs[start..end]
    }
}

/// The shard index of an address among `2^shard_bits` shards.
///
/// The key is the low `shard_bits` bits of the address's /48 prefix
/// (address bits 80..80+`shard_bits`). High /48 bits would skew badly —
/// nearly all announced IPv6 space shares the `001` top bits — while the
/// low bits vary per allocation.
#[inline]
pub fn shard48(bits: u128, shard_bits: u32) -> usize {
    debug_assert!(shard_bits < 48, "shard key must fit inside the /48");
    ((bits >> 80) as usize) & ((1usize << shard_bits) - 1)
}

impl FromIterator<Ipv6Addr> for AddrSet {
    fn from_iter<I: IntoIterator<Item = Ipv6Addr>>(iter: I) -> Self {
        AddrSet::from_addrs(iter)
    }
}

/// Incremental builder for [`AddrSet`], for streaming collection pipelines.
///
/// Buffers insertions and periodically compacts, keeping memory bounded
/// near the final set size even when the stream contains heavy duplication
/// (NTP clients re-query constantly; the paper saw 7.9 B *unique* addresses
/// out of far more requests).
#[derive(Debug, Default)]
pub struct AddrSetBuilder {
    sorted: Vec<u128>,
    pending: Vec<u128>,
    compact_at: usize,
}

impl AddrSetBuilder {
    /// A new builder with a default compaction threshold.
    pub fn new() -> Self {
        AddrSetBuilder {
            sorted: Vec::new(),
            pending: Vec::new(),
            compact_at: 1 << 20,
        }
    }

    /// Adds one address (duplicates are fine).
    pub fn push(&mut self, addr: Ipv6Addr) {
        self.pending.push(u128::from(addr));
        if self.pending.len() >= self.compact_at {
            self.compact();
        }
    }

    fn compact(&mut self) {
        self.pending.sort_unstable();
        self.pending.dedup();
        let mut merged = Vec::with_capacity(self.sorted.len() + self.pending.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.sorted.len() && j < self.pending.len() {
            match self.sorted[i].cmp(&self.pending[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.sorted[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(self.pending[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.sorted[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.sorted[i..]);
        merged.extend_from_slice(&self.pending[j..]);
        self.sorted = merged;
        self.pending.clear();
    }

    /// Number of unique addresses accumulated so far (compacts to count).
    pub fn unique_len(&mut self) -> usize {
        self.compact();
        self.sorted.len()
    }

    /// Finalizes into an [`AddrSet`].
    pub fn build(mut self) -> AddrSet {
        self.compact();
        AddrSet { addrs: self.sorted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn set(addrs: &[&str]) -> AddrSet {
        AddrSet::from_addrs(addrs.iter().map(|s| a(s)))
    }

    #[test]
    fn dedup_and_sort() {
        let s = set(&["2001:db8::2", "2001:db8::1", "2001:db8::2"]);
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![a("2001:db8::1"), a("2001:db8::2")]);
    }

    #[test]
    fn contains() {
        let s = set(&["2001:db8::1", "2001:db8::5"]);
        assert!(s.contains(a("2001:db8::1")));
        assert!(!s.contains(a("2001:db8::2")));
    }

    #[test]
    fn intersection_ops() {
        let x = set(&["2001:db8::1", "2001:db8::2", "2001:db8::3"]);
        let y = set(&["2001:db8::2", "2001:db8::3", "2001:db8::4"]);
        assert_eq!(x.intersection_count(&y), 2);
        assert_eq!(x.intersection(&y).len(), 2);
        assert_eq!(x.union(&y).len(), 4);
        assert_eq!(
            x.difference(&y).iter().collect::<Vec<_>>(),
            vec![a("2001:db8::1")]
        );
        assert_eq!(
            y.difference(&x).iter().collect::<Vec<_>>(),
            vec![a("2001:db8::4")]
        );
    }

    #[test]
    fn intersection_asymmetric_uses_binary_search() {
        // Large set vs tiny set exercises the binary-search path.
        let large = AddrSet::from_bits((0..10_000u128).map(|i| i * 7).collect());
        let small = AddrSet::from_bits(vec![0, 7, 13, 70]);
        assert_eq!(large.intersection_count(&small), 3);
        assert_eq!(small.intersection_count(&large), 3);
    }

    #[test]
    fn empty_set_algebra() {
        let e = AddrSet::new();
        let s = set(&["2001:db8::1"]);
        assert_eq!(e.intersection_count(&s), 0);
        assert_eq!(e.union(&s), s);
        assert_eq!(s.difference(&e), s);
        assert_eq!(e.density(48), 0.0);
    }

    #[test]
    fn distinct_prefixes_and_density() {
        let s = set(&[
            "2001:db8:1::1",
            "2001:db8:1::2",
            "2001:db8:1::3",
            "2001:db8:2::1",
        ]);
        assert_eq!(s.distinct_prefixes(48), 2);
        assert_eq!(s.distinct_prefixes(32), 1);
        assert_eq!(s.distinct_prefixes(128), 4);
        assert!((s.density(48) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_counts() {
        let s = set(&["2001:db8:1::1", "2001:db8:1::2", "2001:db8:2::1"]);
        let agg = s.aggregate(48);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].0, "2001:db8:1::/48".parse().unwrap());
        assert_eq!(agg[0].1, 2);
        assert_eq!(agg[1].1, 1);
        let total: u64 = agg.iter().map(|(_, n)| n).sum();
        assert_eq!(total as usize, s.len());
    }

    #[test]
    fn within_prefix_slicing() {
        let s = set(&["2001:db8:1::1", "2001:db8:1:2::5", "2001:db8:2::1"]);
        let p: Prefix = "2001:db8:1::/48".parse().unwrap();
        assert_eq!(s.within(&p).len(), 2);
        let none: Prefix = "2001:db9::/48".parse().unwrap();
        assert!(s.within(&none).is_empty());
    }

    #[test]
    fn builder_streaming_dedup() {
        let mut b = AddrSetBuilder::new();
        for i in 0..1000u16 {
            b.push(a(&format!("2001:db8::{:x}", i % 100)));
        }
        assert_eq!(b.unique_len(), 100);
        let s = b.build();
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn builder_compaction_boundary() {
        let mut b = AddrSetBuilder::new();
        b.compact_at = 8;
        for i in 0..100u16 {
            b.push(a(&format!("2001:db8::{:x}", i % 10)));
        }
        assert_eq!(b.build().len(), 10);
    }

    #[test]
    fn shard48_keeps_a_slash48_together() {
        let s = AddrSet::from_addrs((0..64u16).map(|i| a(&format!("2001:db8:7::{:x}", i))));
        let shard = shard48(s.as_bits()[0], 4);
        assert!(
            s.as_bits().iter().all(|&b| shard48(b, 4) == shard),
            "one /48 must land in exactly one shard"
        );
        // A different /48 low nibble lands elsewhere.
        assert_ne!(shard48(u128::from(a("2001:db8:8::1")), 4), shard);
    }
}
