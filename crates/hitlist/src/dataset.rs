//! Address datasets: the unit every analysis operates on.
//!
//! A [`Dataset`] is a named bag of timestamped address observations —
//! the NTP corpus, the IPv6 Hitlist emulation, the CAIDA emulation — with
//! the aggregations Table 1 and Figures 1–6 need: unique addresses,
//! per-address first/last/count, distinct ASNs and /48s, densities and
//! pairwise intersections.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;

use v6addr::{AddrSet, Iid};
use v6netsim::{Asn, SimTime, World};

/// One timestamped observation of an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The observed address.
    pub addr: Ipv6Addr,
    /// When it was observed.
    pub t: SimTime,
}

/// Per-address aggregate over all observations, ordered by address,
/// then first sighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AddrRecord {
    /// The address.
    pub addr: Ipv6Addr,
    /// First time observed.
    pub first: SimTime,
    /// Last time observed.
    pub last: SimTime,
    /// Number of observations.
    pub count: u64,
}

impl AddrRecord {
    /// Observation span ("lifetime"): 0 when seen only once (Fig. 2a).
    pub fn lifetime(&self) -> v6netsim::SimDuration {
        self.last.since(self.first)
    }

    /// The address's IID.
    pub fn iid(&self) -> Iid {
        Iid::from_addr(self.addr)
    }
}

/// A named collection of address observations.
///
/// ```
/// use v6hitlist::{Dataset, Observation};
/// use v6netsim::SimTime;
///
/// let d = Dataset::from_observations(
///     "demo",
///     [(100u64, "2001:db8::1"), (500, "2001:db8::1"), (100, "2001:db8::2")]
///         .map(|(t, a)| Observation { addr: a.parse().unwrap(), t: SimTime(t) }),
/// );
/// assert_eq!(d.len(), 2);
/// let r = d.record("2001:db8::1".parse().unwrap()).unwrap();
/// assert_eq!(r.count, 2);
/// assert_eq!(r.lifetime().as_secs(), 400);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable dataset name ("NTP Pool", "IPv6 Hitlist", …).
    pub name: String,
    /// Per-address aggregates, sorted by address.
    records: Vec<AddrRecord>,
    /// Total raw observations folded in.
    observations: u64,
}

impl Dataset {
    /// Builds a dataset from raw observations (any order, duplicates fine).
    ///
    /// One linear pass folds each run of consecutive equal addresses
    /// into a partial record, one sequential radix sort
    /// ([`v6par::radix_sort_by_key`]) orders the partials by
    /// `(addr, first)`, and a second pass merges each address's partials
    /// (min first, max last, summed count). The merge is
    /// order-independent, so any input order is correct; input grouped
    /// by address, as the device-major NTP corpus is, sorts one partial
    /// per run instead of one element per observation. The build uses no
    /// threads: on the pipeline's corpus a chunked parallel sort plus
    /// merge measured slower than this one pass.
    pub fn from_observations<I>(name: impl Into<String>, obs: I) -> Self
    where
        I: IntoIterator<Item = Observation>,
    {
        // Not pre-sized from the iterator's length: that is one slot per
        // observation, and the point of the fold is to hold one per run.
        let mut records: Vec<AddrRecord> = Vec::new();
        let mut observations = 0u64;
        for o in obs {
            observations += 1;
            match records.last_mut() {
                Some(r) if r.addr == o.addr => {
                    r.first = r.first.min(o.t);
                    r.last = r.last.max(o.t);
                    r.count += 1;
                }
                _ => records.push(AddrRecord {
                    addr: o.addr,
                    first: o.t,
                    last: o.t,
                    count: 1,
                }),
            }
        }
        v6par::radix_sort_by_key(&mut records, |r| (u128::from(r.addr), r.first.as_secs()));
        records.dedup_by(|p, r| {
            if p.addr != r.addr {
                return false;
            }
            r.first = r.first.min(p.first);
            r.last = r.last.max(p.last);
            r.count += p.count;
            true
        });
        Dataset {
            name: name.into(),
            records,
            observations,
        }
    }

    /// Builds from bare addresses (each seen once at `t`).
    pub fn from_addresses<I>(name: impl Into<String>, addrs: I, t: SimTime) -> Self
    where
        I: IntoIterator<Item = Ipv6Addr>,
    {
        Self::from_observations(name, addrs.into_iter().map(|addr| Observation { addr, t }))
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of unique addresses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the dataset has no addresses.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total raw observations.
    pub fn observation_count(&self) -> u64 {
        self.observations
    }

    /// Per-address records, sorted by address.
    pub fn records(&self) -> &[AddrRecord] {
        &self.records
    }

    /// The unique addresses as an [`AddrSet`].
    pub fn addr_set(&self) -> AddrSet {
        AddrSet::from_bits(self.records.iter().map(|r| u128::from(r.addr)).collect())
    }

    /// Membership test.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.records
            .binary_search_by_key(&u128::from(addr), |r| u128::from(r.addr))
            .is_ok()
    }

    /// The record for one address.
    pub fn record(&self, addr: Ipv6Addr) -> Option<&AddrRecord> {
        self.records
            .binary_search_by_key(&u128::from(addr), |r| u128::from(r.addr))
            .ok()
            .map(|i| &self.records[i])
    }

    /// Distinct origin ASNs (Table 1's "ASNs" column).
    pub fn distinct_asns(&self, world: &World) -> BTreeSet<Asn> {
        self.records
            .iter()
            .filter_map(|r| world.asn_of(r.addr))
            .collect()
    }

    /// Distinct /48s (Table 1's "/48s" column).
    pub fn distinct_48s(&self) -> u64 {
        self.addr_set().distinct_prefixes(48)
    }

    /// Mean addresses per /48 (Table 1's density column).
    pub fn density_per_48(&self) -> f64 {
        self.addr_set().density(48)
    }

    /// Unique addresses shared with another dataset.
    pub fn common_addresses(&self, other: &Dataset) -> u64 {
        self.addr_set().intersection_count(&other.addr_set())
    }

    /// ASNs shared with another dataset.
    pub fn common_asns(&self, other: &Dataset, world: &World) -> u64 {
        self.distinct_asns(world)
            .intersection(&other.distinct_asns(world))
            .count() as u64
    }

    /// /48s shared with another dataset.
    pub fn common_48s(&self, other: &Dataset) -> u64 {
        let a = self.addr_set().aggregate(48);
        let b = other.addr_set().aggregate(48);
        let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
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

    /// A time-slice: addresses whose observations intersect
    /// `[from, to)`, with counts restricted to that window's endpoints.
    pub fn slice(&self, name: impl Into<String>, from: SimTime, to: SimTime) -> Dataset {
        let records: Vec<AddrRecord> = self
            .records
            .iter()
            .filter(|r| r.first < to && r.last >= from)
            .copied()
            .collect();
        let observations = records.iter().map(|r| r.count).sum();
        Dataset {
            name: name.into(),
            records,
            observations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6netsim::{SimDuration, WorldConfig};

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn obs(addr: &str, t: u64) -> Observation {
        Observation {
            addr: a(addr),
            t: SimTime(t),
        }
    }

    #[test]
    fn aggregates_per_address() {
        let d = Dataset::from_observations(
            "test",
            vec![
                obs("2a00:1::1", 100),
                obs("2a00:1::2", 50),
                obs("2a00:1::1", 400),
                obs("2a00:1::1", 200),
            ],
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d.observation_count(), 4);
        let r = d.record(a("2a00:1::1")).unwrap();
        assert_eq!(r.count, 3);
        assert_eq!(r.first, SimTime(100));
        assert_eq!(r.last, SimTime(400));
        assert_eq!(r.lifetime(), SimDuration(300));
        let once = d.record(a("2a00:1::2")).unwrap();
        assert_eq!(once.lifetime(), SimDuration::ZERO);
    }

    #[test]
    fn contains_and_missing() {
        let d = Dataset::from_observations("t", vec![obs("2a00:1::1", 0)]);
        assert!(d.contains(a("2a00:1::1")));
        assert!(!d.contains(a("2a00:1::2")));
        assert!(d.record(a("2a00:9::9")).is_none());
    }

    #[test]
    fn distinct_48s_and_density() {
        let d = Dataset::from_observations(
            "t",
            vec![
                obs("2a00:1:0:1::1", 0),
                obs("2a00:1:0:1::2", 0),
                obs("2a00:1:1::1", 0),
                obs("2a00:1:1::1", 5),
            ],
        );
        assert_eq!(d.distinct_48s(), 2);
        assert!((d.density_per_48() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn common_counters() {
        let x = Dataset::from_observations(
            "x",
            vec![
                obs("2a00:1::1", 0),
                obs("2a00:2::1", 0),
                obs("2a00:1:0:1::9", 0),
            ],
        );
        let y = Dataset::from_observations("y", vec![obs("2a00:1::1", 9), obs("2a00:3::1", 9)]);
        assert_eq!(x.common_addresses(&y), 1);
        assert_eq!(x.common_48s(&y), 1);
    }

    #[test]
    fn asn_annotation_against_world() {
        let w = World::build(WorldConfig::tiny(), 1);
        let a0 = w.ases[0].router48().offset(1);
        let a1 = w.ases[1].router48().offset(1);
        let d = Dataset::from_addresses("t", vec![a0, a1, a0], SimTime(0));
        let asns = d.distinct_asns(&w);
        assert_eq!(asns.len(), 2);
        assert!(asns.contains(&w.ases[0].info.asn));
    }

    #[test]
    fn time_slice() {
        let d = Dataset::from_observations(
            "t",
            vec![
                obs("2a00:1::1", 100),
                obs("2a00:1::2", 900),
                obs("2a00:1::3", 500),
            ],
        );
        let s = d.slice("s", SimTime(400), SimTime(600));
        assert_eq!(s.len(), 1);
        assert!(s.contains(a("2a00:1::3")));
        // A record spanning the window edge is included.
        let d2 =
            Dataset::from_observations("t", vec![obs("2a00:1::1", 100), obs("2a00:1::1", 700)]);
        assert_eq!(d2.slice("s", SimTime(400), SimTime(600)).len(), 1);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_observations("e", Vec::new());
        assert!(d.is_empty());
        assert_eq!(d.distinct_48s(), 0);
        assert_eq!(d.density_per_48(), 0.0);
    }
}
