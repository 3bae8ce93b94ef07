//! Per-AS IID entropy histograms, maintained incrementally.

use crate::kernel::{
    entropy_bucket, Digest, ENTROPY_BUCKETS, HIGH_ENTROPY_BUCKET, LOW_ENTROPY_BUCKET,
};
use crate::op::{Attrs, Event};

/// One week's entropy-bucket counts.
type WeekRow = (u32, [u32; ENTROPY_BUCKETS]);

/// Per-AS, per-week histogram of IID entropy buckets.
///
/// Bucketing happens at ingest (an integer in `0..16`), so all stored
/// state — and every statistic derived from it — is integer-only:
/// float evaluation order can never perturb a checksum. Unrouted
/// addresses are skipped.
#[derive(Debug, Clone, Default)]
pub struct EntropyProfile {
    /// Indexed by the dense [`crate::AsTag::index`]: the AS's
    /// `(week, bucket counts)` rows, ascending by week. A histogram that
    /// empties is dropped, and an AS with no rows is in no view.
    by_as: Vec<Vec<WeekRow>>,
}

/// One AS row of an [`EntropyProfile`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntropyRow {
    /// Dense AS index.
    pub as_index: u16,
    /// Live attributed addresses.
    pub addresses: u64,
    /// Per-mille of addresses with normalized IID entropy ≥ 0.75.
    pub high_per_mille: u32,
    /// Per-mille of addresses with normalized IID entropy < 0.25.
    pub low_per_mille: u32,
}

impl EntropyProfile {
    /// An empty profile.
    pub fn new() -> EntropyProfile {
        EntropyProfile::default()
    }

    fn add(&mut self, as_index: u16, week: u32, bucket: usize) {
        let i = usize::from(as_index);
        if i >= self.by_as.len() {
            self.by_as.resize_with(i + 1, Vec::new);
        }
        let rows = &mut self.by_as[i];
        let at = rows
            .binary_search_by_key(&week, |row| row.0)
            .unwrap_or_else(|at| {
                rows.insert(at, (week, [0; ENTROPY_BUCKETS]));
                at
            });
        rows[at].1[bucket] += 1;
    }

    /// Takes one address out; false, and nothing changed, when the
    /// histogram of `(as_index, week)` counts none in `bucket`.
    fn remove(&mut self, as_index: u16, week: u32, bucket: usize) -> bool {
        let Some(rows) = self.by_as.get_mut(usize::from(as_index)) else {
            return false;
        };
        let Ok(at) = rows.binary_search_by_key(&week, |row| row.0) else {
            return false;
        };
        let hist = &mut rows[at].1;
        if hist[bucket] == 0 {
            return false;
        }
        hist[bucket] -= 1;
        if hist.iter().all(|&c| c == 0) {
            rows.remove(at);
        }
        true
    }

    /// `(as index, week rows)` of every AS holding any, ascending.
    fn ases(&self) -> impl Iterator<Item = (u16, &[WeekRow])> + '_ {
        (0..=u16::MAX)
            .zip(&self.by_as)
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(as_index, rows)| (as_index, rows.as_slice()))
    }

    /// Aggregated histogram of `as_index` over weeks for which
    /// `keep(week)` holds.
    fn histogram(&self, as_index: u16, keep: impl Fn(u32) -> bool) -> [u64; ENTROPY_BUCKETS] {
        let mut out = [0u64; ENTROPY_BUCKETS];
        for (week, hist) in self.by_as.get(usize::from(as_index)).into_iter().flatten() {
            if keep(*week) {
                for (o, &c) in out.iter_mut().zip(hist) {
                    *o += u64::from(c);
                }
            }
        }
        out
    }

    /// Per-AS entropy summary rows, ascending by AS index.
    pub fn snapshot(&self) -> Vec<EntropyRow> {
        self.ases()
            .map(|(as_index, _)| {
                let hist = self.histogram(as_index, |_| true);
                let total: u64 = hist.iter().sum();
                let high: u64 = hist[HIGH_ENTROPY_BUCKET..].iter().sum();
                let low: u64 = hist[..LOW_ENTROPY_BUCKET].iter().sum();
                EntropyRow {
                    as_index,
                    addresses: total,
                    high_per_mille: per_mille(high, total),
                    low_per_mille: per_mille(low, total),
                }
            })
            .collect()
    }

    /// Distribution shift of `as_index` between the corpus as of week
    /// `w0` (first-seen ≤ `w0`) and the additions of the window
    /// `(w0, w1]`, as total-variation distance in per-mille.
    ///
    /// 0 means the window's additions have the same entropy mix as the
    /// established corpus; 1000 means completely disjoint buckets —
    /// e.g. an AS whose new addresses suddenly come from a low-entropy
    /// allocator. `None` when either side is empty.
    pub fn shift(&self, as_index: u16, w0: u32, w1: u32) -> Option<u32> {
        let before = self.histogram(as_index, |w| w <= w0);
        let after = self.histogram(as_index, |w| w > w0 && w <= w1);
        let (tb, ta): (u64, u64) = (before.iter().sum(), after.iter().sum());
        if tb == 0 || ta == 0 {
            return None;
        }
        let l1: u64 = before
            .iter()
            .zip(&after)
            .map(|(&b, &a)| per_mille(b, tb).abs_diff(per_mille(a, ta)) as u64)
            .sum();
        Some((l1 / 2) as u32)
    }

    /// Stable operator name — used for metrics and transcripts.
    pub fn name(&self) -> &'static str {
        "entropy"
    }

    /// Folds one resolved event into the state. `attrs` are
    /// [`Attrs::resolve`] of the event's address.
    pub fn apply(&mut self, event: &Event, attrs: &Attrs) {
        let Some(tag) = attrs.tag else { return };
        let bucket = entropy_bucket(event.bits());
        match *event {
            Event::Added { week, .. } => self.add(tag.index, week, bucket),
            Event::Removed { week, .. } => {
                self.remove(tag.index, week, bucket);
            }
            Event::WeekChanged {
                old_week, new_week, ..
            } => {
                if self.remove(tag.index, old_week, bucket) {
                    self.add(tag.index, new_week, bucket);
                }
            }
        }
    }

    /// FNV digest of the full canonical state.
    pub fn checksum(&self) -> u64 {
        // Per AS: its index, how many weeks it holds, then each
        // `(week, histogram)`.
        let mut d = Digest::new();
        d.word(self.ases().count() as u64);
        for (as_index, rows) in self.ases() {
            d.word(u64::from(as_index));
            d.word(rows.len() as u64);
            for (week, hist) in rows {
                d.word(u64::from(*week));
                for &c in hist {
                    d.word(u64::from(c));
                }
            }
        }
        d.finish()
    }

    /// Discards all state (used on resync).
    pub fn reset(&mut self) {
        self.by_as.clear();
    }
}

/// Rounded integer fraction in per-mille.
#[inline]
fn per_mille(part: u64, total: u64) -> u32 {
    (1000 * part + total / 2).checked_div(total).unwrap_or(0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn apply(p: &mut EntropyProfile, event: Event) {
        p.apply(&event, &Attrs::resolve(&resolver(), event.bits()));
    }

    fn addr(iid: u64) -> u128 {
        (0x2a00_0001u128 << 96) | u128::from(iid)
    }

    #[test]
    fn tracks_and_drains_canonically() {
        let mut p = EntropyProfile::new();
        let empty = p.checksum();
        apply(
            &mut p,
            Event::Added {
                bits: addr(0),
                week: 1,
            },
        ); // low entropy
        apply(
            &mut p,
            Event::Added {
                bits: addr(0xdead_beef_cafe_f00d),
                week: 1,
            },
        );
        let rows = p.snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].addresses, 2);
        assert_eq!(rows[0].low_per_mille, 500);
        // Unrouted addresses are ignored.
        apply(&mut p, Event::Added { bits: 42, week: 1 });
        assert_eq!(p.snapshot()[0].addresses, 2);
        apply(
            &mut p,
            Event::Removed {
                bits: addr(0),
                week: 1,
            },
        );
        apply(
            &mut p,
            Event::Removed {
                bits: addr(0xdead_beef_cafe_f00d),
                week: 1,
            },
        );
        assert_eq!(p.checksum(), empty);
    }

    #[test]
    fn shift_sees_allocator_change() {
        let mut p = EntropyProfile::new();
        // Established corpus: high-entropy IIDs up to week 2.
        for i in 0..8u64 {
            apply(
                &mut p,
                Event::Added {
                    bits: addr(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i * 2 + 1)),
                    week: 1 + (i as u32 % 2),
                },
            );
        }
        // Window (2, 4]: all-zero low-entropy IIDs.
        for i in 0..4u64 {
            apply(
                &mut p,
                Event::Added {
                    bits: addr(i),
                    week: 3,
                },
            );
        }
        let shift = p.shift(1, 2, 4).expect("both sides populated");
        assert!(shift > 500, "allocator flip is a large shift, got {shift}");
        assert_eq!(p.shift(1, 0, 1), None, "empty 'before' side");
        assert_eq!(p.shift(9, 2, 4), None, "unknown AS");
    }

    #[test]
    fn unknown_removals_and_week_changes_change_nothing() {
        let mut p = EntropyProfile::new();
        apply(
            &mut p,
            Event::Added {
                bits: addr(0),
                week: 3,
            },
        );
        let before = p.checksum();
        for event in [
            // A week the AS does not hold; a held week, but a bucket
            // nothing in it falls into; either of those as the old side
            // of a week change.
            Event::Removed {
                bits: addr(0),
                week: 2,
            },
            Event::Removed {
                bits: addr(0x0123_4567_89ab_cdef),
                week: 3,
            },
            Event::WeekChanged {
                bits: addr(0),
                old_week: 2,
                new_week: 1,
            },
            Event::WeekChanged {
                bits: addr(0x0123_4567_89ab_cdef),
                old_week: 3,
                new_week: 1,
            },
        ] {
            apply(&mut p, event);
            assert_eq!(p.checksum(), before, "{event:?}");
            assert_eq!(p.snapshot()[0].addresses, 1, "{event:?}");
        }
        apply(
            &mut p,
            Event::Removed {
                bits: addr(0),
                week: 3,
            },
        );
        assert_eq!(p.checksum(), EntropyProfile::new().checksum());
    }
}
