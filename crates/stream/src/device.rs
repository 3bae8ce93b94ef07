//! EUI-64 device tracking: per-MAC network histories, the paper's
//! five track classes, and cross-network movement windows.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::kernel::{net64, Digest, MacNets, Rows};
use crate::op::{Attrs, Event, Operator};
use crate::resolver::AsTag;
use crate::rotation::RotationEstimator;

/// The paper's taxonomy of multi-network EUI-64 devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrackClass {
    /// Seen in more than one country — the MAC is reused across
    /// distinct physical devices (broken vendor defaults).
    MacReuse,
    /// Multiple ASes and many network transitions: a physically
    /// travelling device.
    UserMovement,
    /// Multiple ASes, few transitions: a subscriber switching ISPs.
    ChangingProviders,
    /// One AS, many transitions: periodic prefix rotation by the ISP.
    PrefixReassignment,
    /// Few transitions within one AS.
    MostlyStatic,
}

/// Transition count above which a device counts as "many moves".
pub const MANY_TRANSITIONS: usize = 3;

/// One row of the device table: everything known about one MAC.
///
/// Both columns are sorted [`Rows`] that hold their first row in place,
/// so a device that is a single address — most of them, under churn —
/// allocates nothing beyond its table slot. The per-AS and per-country
/// counts the classes and digests need are read off `tags` when asked
/// for, not maintained per event.
#[derive(Debug, Clone, Default)]
pub(crate) struct Device {
    pub(crate) nets: MacNets,
    /// `((as index, country), live address count)`, ascending; unrouted
    /// addresses have no row.
    tags: Rows<(u16, u16)>,
}

impl Device {
    /// `(as index, live address count)`, ascending: adjacent `tags`
    /// rows share their AS.
    pub(crate) fn ases(&self) -> impl Iterator<Item = (u16, u32)> + '_ {
        self.tags
            .chunk_by(|a, b| a.0 .0 == b.0 .0)
            .map(|rows| (rows[0].0 .0, rows.iter().map(|row| row.1).sum()))
    }

    /// `(country, live address count)`, ascending.
    fn countries(&self) -> Vec<(u16, u32)> {
        let mut rows: Vec<(u16, u32)> = self.tags.iter().map(|&((_, cc), n)| (cc, n)).collect();
        rows.sort_unstable();
        rows.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        rows
    }

    /// Folds the network history and per-AS counts: all of a device
    /// the rotation digest covers, and the head of the device digest.
    pub(crate) fn digest_into(&self, d: &mut Digest) {
        self.nets.digest_into(d);
        d.word(self.ases().count() as u64);
        for (a, c) in self.ases() {
            d.word(u64::from(a) << 32 | u64::from(c));
        }
    }

    fn classify(&self) -> Option<TrackClass> {
        if self.nets.net_count() < 2 {
            return None; // single-network devices carry no track signal
        }
        let transitions = self.nets.net_count() - 1;
        let ases = self.ases().count();
        let multi_country = self.tags.iter().any(|row| row.0 .1 != self.tags[0].0 .1);
        Some(if multi_country {
            TrackClass::MacReuse
        } else if ases > 1 && transitions > MANY_TRANSITIONS {
            TrackClass::UserMovement
        } else if ases > 1 {
            TrackClass::ChangingProviders
        } else if transitions > MANY_TRANSITIONS {
            TrackClass::PrefixReassignment
        } else {
            TrackClass::MostlyStatic
        })
    }
}

/// Tracks every EUI-64 device across the corpus, incrementally.
///
/// Keyed by the MAC leaked in the IID, ascending (the digest order);
/// non-EUI-64 addresses are invisible to this operator. Unrouted
/// addresses still contribute their network history (moves are
/// observable without attribution). This is the one per-MAC table:
/// [`RotationEstimator`] is a view of it.
#[derive(Debug, Clone, Default)]
pub struct DeviceTracker {
    pub(crate) devices: BTreeMap<u64, Device>,
}

/// A point-in-time view of [`DeviceTracker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceReport {
    /// Devices currently visible (≥ 1 live EUI-64 address).
    pub devices: u64,
    /// Devices seen in two or more /64s.
    pub multi_network: u64,
    /// `(class, device count)` over multi-network devices, ascending
    /// by class.
    pub classes: Vec<(TrackClass, u64)>,
}

/// One device that moved networks inside a query window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// MAC key (48 bits, big-endian in the low bytes).
    pub mac: u64,
    /// A /64 the device inhabited at or before the window start.
    pub from_net: u64,
    /// The /64 it first appeared in inside the window.
    pub to_net: u64,
    /// First-seen week of `to_net`.
    pub week: u32,
}

impl DeviceTracker {
    /// An empty tracker.
    pub fn new() -> DeviceTracker {
        DeviceTracker::default()
    }

    /// Per-AS rotation estimates over this table.
    pub fn rotation(&self) -> RotationEstimator<'_> {
        RotationEstimator { tracker: self }
    }

    fn add(&mut self, mac: u64, net: u64, week: u32, tag: Option<AsTag>) {
        let dev = self.devices.entry(mac).or_default();
        dev.nets.add(net, week);
        if let Some(tag) = tag {
            dev.tags.bump((tag.index, tag.country));
        }
    }

    fn remove(&mut self, mac: u64, net: u64, week: u32, tag: Option<AsTag>) {
        let Entry::Occupied(mut slot) = self.devices.entry(mac) else {
            return;
        };
        let dev = slot.get_mut();
        if !dev.nets.remove(net, week) {
            return;
        }
        if let Some(tag) = tag {
            dev.tags.unbump((tag.index, tag.country));
        }
        if dev.nets.is_empty() {
            slot.remove();
        }
    }

    /// Builds the typed class-census snapshot.
    pub fn snapshot(&self) -> DeviceReport {
        let mut classes: BTreeMap<TrackClass, u64> = BTreeMap::new();
        let mut multi = 0u64;
        for dev in self.devices.values() {
            if let Some(class) = dev.classify() {
                multi += 1;
                *classes.entry(class).or_insert(0) += 1;
            }
        }
        DeviceReport {
            devices: self.devices.len() as u64,
            multi_network: multi,
            classes: classes.into_iter().collect(),
        }
    }

    /// Devices that inhabited some /64 at or before week `w0` and
    /// first appeared in a *different* /64 during `(w0, w1]` — the
    /// `moved_between` windowed query. Rows ascend by MAC; one row per
    /// destination net, `from_net` being the device's earliest
    /// pre-window network.
    pub fn moved_between(&self, w0: u32, w1: u32) -> Vec<Move> {
        let mut out = Vec::new();
        for (&mac, dev) in &self.devices {
            let firsts: Vec<(u64, u32)> = dev.nets.first_weeks().collect();
            let from = firsts
                .iter()
                .filter(|&&(_, w)| w <= w0)
                .min_by_key(|&&(net, w)| (w, net));
            let Some(&(from_net, _)) = from else { continue };
            for &(net, week) in &firsts {
                if net != from_net && week > w0 && week <= w1 {
                    out.push(Move {
                        mac,
                        from_net,
                        to_net: net,
                        week,
                    });
                }
            }
        }
        out
    }
}

impl Operator for DeviceTracker {
    fn name(&self) -> &'static str {
        "device"
    }

    fn apply(&mut self, event: &Event, attrs: &Attrs) {
        let Some(mac) = attrs.mac else { return };
        let net = net64(event.bits());
        match *event {
            Event::Added { week, .. } => self.add(mac, net, week, attrs.tag),
            Event::Removed { week, .. } => self.remove(mac, net, week, attrs.tag),
            Event::WeekChanged {
                old_week, new_week, ..
            } => {
                if let Some(dev) = self.devices.get_mut(&mac) {
                    dev.nets.week_changed(net, old_week, new_week);
                }
            }
        }
    }

    fn checksum(&self) -> u64 {
        let mut d = Digest::new();
        d.word(self.devices.len() as u64);
        for (&mac, dev) in &self.devices {
            d.word(mac);
            dev.digest_into(&mut d);
            let countries = dev.countries();
            d.word(countries.len() as u64);
            for (cc, c) in countries {
                d.word(u64::from(cc) << 32 | u64::from(c));
            }
        }
        d.finish()
    }

    fn reset(&mut self) {
        self.devices.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::PrefixAsTable;

    fn resolver() -> PrefixAsTable {
        PrefixAsTable::new(vec![
            (
                0x2a00_0001u128 << 96,
                32,
                AsTag {
                    index: 1,
                    country: u16::from_be_bytes(*b"DE"),
                },
            ),
            (
                0x2a00_0002u128 << 96,
                32,
                AsTag {
                    index: 2,
                    country: u16::from_be_bytes(*b"DE"),
                },
            ),
            (
                0x2a00_0003u128 << 96,
                32,
                AsTag {
                    index: 3,
                    country: u16::from_be_bytes(*b"JP"),
                },
            ),
        ])
    }

    fn apply(t: &mut DeviceTracker, event: Event) {
        t.apply(&event, &Attrs::resolve(&resolver(), event.bits()));
    }

    fn eui(prefix: u128, subnet: u64, mac: u64) -> u128 {
        let iid = v6addr::Iid::from_mac(v6addr::Mac::from_u64(mac));
        (prefix << 96) | (u128::from(subnet) << 64) | u128::from(iid.as_u64())
    }

    #[test]
    fn classifies_and_windows_moves() {
        let mut t = DeviceTracker::new();
        let empty = t.checksum();
        let mac = 0x0012_3456_789a;
        // Week 1: home network; weeks 3 and 5: two more subnets, same AS.
        apply(
            &mut t,
            Event::Added {
                bits: eui(0x2a00_0001, 0, mac),
                week: 1,
            },
        );
        apply(
            &mut t,
            Event::Added {
                bits: eui(0x2a00_0001, 1, mac),
                week: 3,
            },
        );
        apply(
            &mut t,
            Event::Added {
                bits: eui(0x2a00_0001, 2, mac),
                week: 5,
            },
        );
        let snap = t.snapshot();
        assert_eq!((snap.devices, snap.multi_network), (1, 1));
        assert_eq!(snap.classes, vec![(TrackClass::MostlyStatic, 1)]);

        // The same MAC in Japan: reuse across countries.
        apply(
            &mut t,
            Event::Added {
                bits: eui(0x2a00_0003, 0, mac),
                week: 4,
            },
        );
        assert_eq!(t.snapshot().classes, vec![(TrackClass::MacReuse, 1)]);

        let moves = t.moved_between(2, 4);
        assert_eq!(moves.len(), 2, "weeks 3 and 4 fall in (2, 4]");
        assert!(moves.iter().all(|m| m.from_net == (0x2a00_0001u64 << 32)));
        assert!(t.moved_between(5, 9).is_empty());

        for (p, s, w) in [
            (0x2a00_0001, 0, 1),
            (0x2a00_0001, 1, 3),
            (0x2a00_0001, 2, 5),
            (0x2a00_0003, 0, 4),
        ] {
            apply(
                &mut t,
                Event::Removed {
                    bits: eui(p, s, mac),
                    week: w,
                },
            );
        }
        assert_eq!(t.checksum(), empty, "drained tracker equals fresh");
    }

    #[test]
    fn non_eui64_addresses_are_invisible() {
        let mut t = DeviceTracker::new();
        apply(
            &mut t,
            Event::Added {
                bits: (0x2a00_0001u128 << 96) | 0xabcd,
                week: 1,
            },
        );
        assert_eq!(t.snapshot().devices, 0);
    }

    #[test]
    fn unknown_removals_and_week_changes_change_nothing() {
        let mut t = DeviceTracker::new();
        let mac = 0x0012_3456_789a;
        let held = eui(0x2a00_0001, 0, mac);
        apply(
            &mut t,
            Event::Added {
                bits: held,
                week: 3,
            },
        );
        let before = t.checksum();
        for event in [
            // Held address under a week it does not have; a sibling in
            // the same AS that was never added; an unknown MAC.
            Event::Removed {
                bits: held,
                week: 2,
            },
            Event::Removed {
                bits: eui(0x2a00_0001, 1, mac),
                week: 3,
            },
            Event::Removed {
                bits: eui(0x2a00_0002, 0, mac + 1),
                week: 3,
            },
            Event::WeekChanged {
                bits: held,
                old_week: 2,
                new_week: 1,
            },
            Event::WeekChanged {
                bits: eui(0x2a00_0001, 1, mac),
                old_week: 3,
                new_week: 1,
            },
        ] {
            apply(&mut t, event);
            assert_eq!(t.checksum(), before, "{event:?}");
        }
        apply(
            &mut t,
            Event::Removed {
                bits: held,
                week: 3,
            },
        );
        assert_eq!(t.checksum(), DeviceTracker::new().checksum());
    }
}
