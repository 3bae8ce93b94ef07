//! EUI-64 device tracking: per-MAC network histories and
//! cross-network movement windows.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::kernel::{net64, Digest, MacNets, Rows};
use crate::op::{Attrs, Event};
use crate::resolver::AsTag;

/// One row of the device table: everything known about one MAC.
///
/// Both columns are sorted [`Rows`] that hold their first row in place,
/// so a device that is a single address — most of them, under churn —
/// allocates nothing beyond its table slot. No request reads `tags`;
/// it stays because the device digest covers its per-AS and
/// per-country counts, which are read off it when the digest is taken.
#[derive(Debug, Clone, Default)]
struct Device {
    nets: MacNets,
    /// `((as index, country), live address count)`, ascending; unrouted
    /// addresses have no row.
    tags: Rows<(u16, u16)>,
}

impl Device {
    /// `(as index, live address count)`, ascending: adjacent `tags`
    /// rows share their AS.
    fn ases(&self) -> impl Iterator<Item = (u16, u32)> + '_ {
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
}

/// Tracks every EUI-64 device across the corpus, incrementally.
///
/// Keyed by the MAC leaked in the IID, ascending (the digest order);
/// non-EUI-64 addresses are invisible to this operator. Unrouted
/// addresses still contribute their network history (moves are
/// observable without attribution).
#[derive(Debug, Clone, Default)]
pub struct DeviceTracker {
    devices: BTreeMap<u64, Device>,
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

    /// Devices that inhabited some /64 at or before week `w0` and
    /// first appeared in a *different* /64 during `(w0, w1]` — the
    /// `moved_between` windowed query. Rows ascend by MAC; one row per
    /// destination net, `from_net` being the device's earliest
    /// pre-window network. Lazy and allocation-free: a caller that
    /// wants the first `n` rows stops the scan of the table there.
    pub fn moved_between(&self, w0: u32, w1: u32) -> impl Iterator<Item = Move> + '_ {
        self.devices.iter().flat_map(move |(&mac, dev)| {
            let from = dev
                .nets
                .first_weeks()
                .filter(|&(_, w)| w <= w0)
                .min_by_key(|&(net, w)| (w, net));
            dev.nets.first_weeks().filter_map(move |(to_net, week)| {
                let (from_net, _) = from?;
                (to_net != from_net && week > w0 && week <= w1).then_some(Move {
                    mac,
                    from_net,
                    to_net,
                    week,
                })
            })
        })
    }

    /// Stable operator name — used for metrics and transcripts.
    pub fn name(&self) -> &'static str {
        "device"
    }

    /// Folds one resolved event into the state. `attrs` are
    /// [`Attrs::resolve`] of the event's address.
    pub fn apply(&mut self, event: &Event, attrs: &Attrs) {
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

    /// FNV digest of the full canonical state.
    pub fn checksum(&self) -> u64 {
        let mut d = Digest::new();
        d.word(self.devices.len() as u64);
        for (&mac, dev) in &self.devices {
            d.word(mac);
            dev.nets.digest_into(&mut d);
            d.word(dev.ases().count() as u64);
            for (a, c) in dev.ases() {
                d.word(u64::from(a) << 32 | u64::from(c));
            }
            let countries = dev.countries();
            d.word(countries.len() as u64);
            for (cc, c) in countries {
                d.word(u64::from(cc) << 32 | u64::from(c));
            }
        }
        d.finish()
    }

    /// Discards all state (used on resync).
    pub fn reset(&mut self) {
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
    fn windows_moves() {
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
        // The same MAC in Japan.
        apply(
            &mut t,
            Event::Added {
                bits: eui(0x2a00_0003, 0, mac),
                week: 4,
            },
        );
        let moves: Vec<Move> = t.moved_between(2, 4).collect();
        assert_eq!(moves.len(), 2, "weeks 3 and 4 fall in (2, 4]");
        assert!(moves.iter().all(|m| m.from_net == (0x2a00_0001u64 << 32)));
        assert_eq!(t.moved_between(5, 9).next(), None);

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
        assert_eq!(t.checksum(), DeviceTracker::new().checksum());
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
