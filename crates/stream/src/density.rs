//! Per-/48 address density, maintained incrementally.

use std::collections::BTreeMap;

use crate::kernel::{net48, Digest};
use crate::op::{Attrs, Event, Operator};

/// Live address count per /48 network.
///
/// The streaming replacement for the batch density scan: one counter
/// per /48, bumped on add, decremented (and pruned at zero) on remove.
/// Week changes do not move an address between networks, so they are
/// no-ops here.
#[derive(Debug, Clone, Default)]
pub struct DensityMap {
    per48: BTreeMap<u128, u64>,
}

/// A point-in-time view of [`DensityMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensityReport {
    /// Number of populated /48s.
    pub networks: u64,
    /// Total live addresses.
    pub addresses: u64,
    /// The densest /48s, `(net48 bits, count)`, descending by count
    /// then ascending by network; at most `top` rows.
    pub top: Vec<(u128, u64)>,
}

impl DensityMap {
    /// An empty map.
    pub fn new() -> DensityMap {
        DensityMap::default()
    }

    /// Live address count in `net` (a /48 network's bits).
    pub fn count(&self, net: u128) -> u64 {
        self.per48.get(&net48(net)).copied().unwrap_or(0)
    }

    /// Builds the typed snapshot with up to `top` densest networks.
    pub fn snapshot(&self, top: usize) -> DensityReport {
        let mut rows: Vec<(u128, u64)> = self.per48.iter().map(|(&n, &c)| (n, c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(top);
        DensityReport {
            networks: self.per48.len() as u64,
            addresses: self.per48.values().sum(),
            top: rows,
        }
    }
}

impl Operator for DensityMap {
    fn name(&self) -> &'static str {
        "density"
    }

    fn apply(&mut self, event: &Event, _attrs: &Attrs) {
        match *event {
            Event::Added { bits, .. } => {
                *self.per48.entry(net48(bits)).or_insert(0) += 1;
            }
            Event::Removed { bits, .. } => {
                let net = net48(bits);
                if let Some(c) = self.per48.get_mut(&net) {
                    *c -= 1;
                    if *c == 0 {
                        self.per48.remove(&net);
                    }
                }
            }
            Event::WeekChanged { .. } => {}
        }
    }

    fn checksum(&self) -> u64 {
        let mut d = Digest::new();
        d.word(self.per48.len() as u64);
        for (&net, &count) in &self.per48 {
            d.wide(net);
            d.word(count);
        }
        d.finish()
    }

    fn reset(&mut self) {
        self.per48.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(m: &mut DensityMap, event: Event) {
        let attrs = Attrs {
            tag: None,
            mac: None,
        };
        m.apply(&event, &attrs);
    }

    #[test]
    fn add_remove_is_canonical() {
        let mut m = DensityMap::new();
        let empty = m.checksum();
        let a = (0x2001_0db8u128 << 96) | 1;
        let b = (0x2001_0db8u128 << 96) | 2;
        apply(&mut m, Event::Added { bits: a, week: 1 });
        apply(&mut m, Event::Added { bits: b, week: 2 });
        assert_eq!(m.count(a), 2);
        apply(&mut m, Event::Removed { bits: a, week: 1 });
        apply(&mut m, Event::Removed { bits: b, week: 2 });
        assert_eq!(m.checksum(), empty, "drained map equals fresh map");
    }

    #[test]
    fn snapshot_orders_by_density() {
        let mut m = DensityMap::new();
        for i in 0..3u128 {
            apply(
                &mut m,
                Event::Added {
                    bits: (1u128 << 82) | i,
                    week: 0,
                },
            );
        }
        apply(
            &mut m,
            Event::Added {
                bits: 2u128 << 82,
                week: 0,
            },
        );
        let snap = m.snapshot(8);
        assert_eq!(snap.networks, 2);
        assert_eq!(snap.addresses, 4);
        assert_eq!(snap.top[0].1, 3);
    }

    #[test]
    fn unknown_removals_change_nothing() {
        let mut m = DensityMap::new();
        let a = (0x2001_0db8u128 << 96) | 1;
        apply(&mut m, Event::Added { bits: a, week: 1 });
        let before = m.checksum();
        apply(
            &mut m,
            Event::Removed {
                bits: a ^ 1 << 100,
                week: 1,
            },
        );
        assert_eq!(m.checksum(), before, "a /48 it does not hold");
        assert_eq!(m.count(a), 1);
    }
}
