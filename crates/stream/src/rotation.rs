//! Per-AS prefix rotation period estimation from EUI-64 device
//! network histories.

use std::collections::BTreeMap;

use crate::device::DeviceTracker;
use crate::kernel::Digest;

/// Estimates each AS's prefix rotation period from the weeks at which
/// its EUI-64 devices surface in new /64s.
///
/// Only devices attributed to exactly one AS contribute — a device
/// that changed providers tells us about churn, not rotation. The
/// estimator has no state of its own: everything it reads — each
/// device's /64 history and AS counts — is a column of the
/// [`DeviceTracker`]'s table, so it is a view of that table, taken with
/// [`DeviceTracker::rotation`]. Its checksum digests just those
/// columns.
#[derive(Debug, Clone, Copy)]
pub struct RotationEstimator<'a> {
    pub(crate) tracker: &'a DeviceTracker,
}

/// One AS row of a [`RotationEstimator`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationRow {
    /// Dense AS index.
    pub as_index: u16,
    /// Median weeks between a device's consecutive network
    /// appearances (nearest-rank).
    pub median_period_weeks: u32,
    /// Number of pooled inter-appearance intervals.
    pub samples: u64,
}

impl RotationEstimator<'_> {
    /// Stable operator name — used for metrics and transcripts.
    pub fn name(&self) -> &'static str {
        "rotation"
    }

    /// Per-AS rotation rows, descending by sample count then
    /// ascending by AS index.
    pub fn snapshot(&self) -> Vec<RotationRow> {
        let mut pools: BTreeMap<u16, Vec<u32>> = BTreeMap::new();
        for dev in self.tracker.devices.values() {
            let mut ases = dev.ases();
            let (Some((as_index, _)), None) = (ases.next(), ases.next()) else {
                continue;
            };
            if dev.nets.net_count() < 2 {
                continue;
            }
            let mut weeks: Vec<u32> = dev.nets.first_weeks().map(|(_, w)| w).collect();
            weeks.sort_unstable();
            weeks.dedup();
            let pool = pools.entry(as_index).or_default();
            for pair in weeks.windows(2) {
                pool.push(pair[1] - pair[0]);
            }
        }
        let mut rows: Vec<RotationRow> = pools
            .into_iter()
            .filter(|(_, pool)| !pool.is_empty())
            .map(|(as_index, mut pool)| {
                pool.sort_unstable();
                RotationRow {
                    as_index,
                    // Nearest-rank median: element ⌈n/2⌉ (1-based).
                    median_period_weeks: pool[pool.len().div_ceil(2) - 1],
                    samples: pool.len() as u64,
                }
            })
            .collect();
        rows.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.as_index.cmp(&b.as_index)));
        rows
    }

    /// FNV digest of the columns the estimate reads: per device its
    /// MAC, network history and per-AS counts, ascending by MAC.
    pub fn checksum(&self) -> u64 {
        let devices = &self.tracker.devices;
        let mut d = Digest::new();
        d.word(devices.len() as u64);
        for (&mac, dev) in devices {
            d.word(mac);
            dev.digest_into(&mut d);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Attrs, Event, Operator};
    use crate::resolver::{AsTag, PrefixAsTable};

    fn resolver() -> PrefixAsTable {
        PrefixAsTable::new(vec![(
            0x2a00_0001u128 << 96,
            32,
            AsTag {
                index: 1,
                country: 0,
            },
        )])
    }

    fn apply(t: &mut DeviceTracker, event: Event) {
        t.apply(&event, &Attrs::resolve(&resolver(), event.bits()));
    }

    fn eui(subnet: u64, mac: u64) -> u128 {
        let iid = v6addr::Iid::from_mac(v6addr::Mac::from_u64(mac));
        (0x2a00_0001u128 << 96) | (u128::from(subnet) << 64) | u128::from(iid.as_u64())
    }

    #[test]
    fn estimates_rotation_period() {
        let mut t = DeviceTracker::new();
        let empty = t.rotation().checksum();
        // A device rotated to a fresh /64 every 2 weeks.
        for (i, week) in [(0u64, 1u32), (1, 3), (2, 5), (3, 7)] {
            apply(
                &mut t,
                Event::Added {
                    bits: eui(i, 0xaa),
                    week,
                },
            );
        }
        let rows = t.rotation().snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_index, 1);
        assert_eq!(rows[0].median_period_weeks, 2);
        assert_eq!(rows[0].samples, 3);

        for (i, week) in [(0u64, 1u32), (1, 3), (2, 5), (3, 7)] {
            apply(
                &mut t,
                Event::Removed {
                    bits: eui(i, 0xaa),
                    week,
                },
            );
        }
        assert_eq!(
            t.rotation().checksum(),
            empty,
            "drained estimator equals fresh"
        );
    }

    #[test]
    fn single_network_devices_yield_no_rows() {
        let mut t = DeviceTracker::new();
        apply(
            &mut t,
            Event::Added {
                bits: eui(0, 0xbb),
                week: 1,
            },
        );
        assert!(t.rotation().snapshot().is_empty());
    }

    #[test]
    fn unknown_removals_change_nothing() {
        let mut t = DeviceTracker::new();
        for (i, week) in [(0u64, 1u32), (1, 4)] {
            apply(
                &mut t,
                Event::Added {
                    bits: eui(i, 0xcc),
                    week,
                },
            );
        }
        let (sum, rows) = (t.rotation().checksum(), t.rotation().snapshot());
        assert_eq!(rows[0].median_period_weeks, 3);
        // A /64 the device is not in, and a week change of it: the
        // device must not grow a third network.
        apply(
            &mut t,
            Event::Removed {
                bits: eui(2, 0xcc),
                week: 6,
            },
        );
        apply(
            &mut t,
            Event::WeekChanged {
                bits: eui(2, 0xcc),
                old_week: 6,
                new_week: 9,
            },
        );
        assert_eq!(t.rotation().checksum(), sum);
        assert_eq!(t.rotation().snapshot(), rows);
    }
}
