//! The pure per-record fold kernels every operator (and its batch
//! counterpart) is built from.
//!
//! Each kernel is a deterministic function of the address bits and
//! first-seen week alone — the two facts a [`v6store::DeltaRecord`]
//! carries per entry. Incremental operators fold these kernels over
//! resolved delta events; batch analyses fold the *same* kernels over
//! the materialized corpus. That sharing is what makes the
//! streaming ≡ batch equivalence invariant provable rather than
//! hoped-for.

use std::ops::Deref;

use v6addr::Iid;
use v6store::format::{fnv1a, FNV_BASIS};

/// The /64 network containing `bits`, as its upper 64 bits.
#[inline]
pub fn net64(bits: u128) -> u64 {
    (bits >> 64) as u64
}

/// The interface identifier (low 64 bits) of `bits`.
#[inline]
pub fn iid_of(bits: u128) -> Iid {
    Iid::new(bits as u64)
}

/// The MAC address an EUI-64 SLAAC IID leaks, as a `u64` key
/// (big-endian 6 bytes in the low 48 bits). `None` for non-EUI-64
/// IIDs.
#[inline]
pub fn eui64_mac(bits: u128) -> Option<u64> {
    iid_of(bits).to_mac().map(v6addr::Mac::as_u64)
}

/// Number of entropy histogram buckets ([0, 1) in 1/16 steps; the
/// value 1.0 folds into the top bucket).
pub const ENTROPY_BUCKETS: usize = 16;

/// Buckets at or above this index hold IIDs with normalized entropy
/// ≥ 0.75 — the paper's "high entropy" class.
pub const HIGH_ENTROPY_BUCKET: usize = 12;

/// Buckets below this index hold IIDs with normalized entropy < 0.25
/// — the paper's "low entropy" class.
pub const LOW_ENTROPY_BUCKET: usize = 4;

/// The entropy histogram bucket of an address's IID: nibble entropy
/// (normalized to `[0, 1]`) quantized into [`ENTROPY_BUCKETS`] bins.
#[inline]
pub fn entropy_bucket(bits: u128) -> usize {
    let h = v6addr::iid_entropy(iid_of(bits));
    ((h * ENTROPY_BUCKETS as f64) as usize).min(ENTROPY_BUCKETS - 1)
}

/// FNV-1a 64 over a stream of words — the operator checksum fold.
///
/// Operators feed their *entire canonical state* (sorted, deterministic
/// iteration order) through one of these; equal states produce equal
/// digests regardless of the event order that built them.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// FNV-1a offset basis.
    pub fn new() -> Digest {
        Digest(FNV_BASIS)
    }

    /// Folds one 64-bit word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = fnv1a(self.0, &w.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// One term of the serving layer's order-independent content checksum
/// over `(bits, week)` entries.
///
/// This is the **canonical definition** of the fold `v6serve`
/// publishes as `Snapshot::content_checksum` and `v6store` records in
/// every [`v6store::DeltaRecord`]. It is a commutative wrapping sum of
/// per-entry terms, which is exactly what lets a stream consumer
/// maintain the corpus checksum in O(1) per record
/// (`acc ± content_term(bits, week)`) and verify each delta against
/// the checksum its producer recorded — the gap detector.
#[inline]
pub fn content_term(bits: u128, week: u32) -> u64 {
    let mixed = (bits as u64)
        ^ ((bits >> 64) as u64).rotate_left(17)
        ^ u64::from(week).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mixed.wrapping_mul(0xbf58_476d_1ce4_e5b9) | 1
}

/// Folds one entry into the running content checksum.
#[inline]
pub fn fold_content(acc: u64, bits: u128, week: u32) -> u64 {
    acc.wrapping_add(content_term(bits, week))
}

/// A small multiset as ascending `(key, count)` rows. One row is held
/// in place and a `Vec` is allocated only at a second, so the common
/// one-row list (a device that is a single address) costs no heap.
/// Canonical: a list shrunk back to one row drops its `Vec`, so equal
/// multisets are equal values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Rows<K> {
    /// No row, or one.
    Inline(Option<(K, u32)>),
    /// Two rows or more, ascending by key.
    Spilled(Vec<(K, u32)>),
}

impl<K> Default for Rows<K> {
    fn default() -> Self {
        Rows::Inline(None)
    }
}

/// The rows, ascending by key.
impl<K> Deref for Rows<K> {
    type Target = [(K, u32)];

    fn deref(&self) -> &[(K, u32)] {
        match self {
            Rows::Inline(row) => row.as_slice(),
            Rows::Spilled(rows) => rows,
        }
    }
}

impl<K: Ord + Copy> Rows<K> {
    /// One more `key`.
    pub(crate) fn bump(&mut self, key: K) {
        match self {
            Rows::Inline(None) => *self = Rows::Inline(Some((key, 1))),
            Rows::Inline(Some(row)) if row.0 == key => row.1 += 1,
            Rows::Inline(Some(row)) => {
                let (row, new) = (*row, (key, 1));
                let pair = if row.0 < key { [row, new] } else { [new, row] };
                *self = Rows::Spilled(pair.to_vec());
            }
            Rows::Spilled(rows) => match rows.binary_search_by_key(&key, |row| row.0) {
                Ok(i) => rows[i].1 += 1,
                Err(i) => rows.insert(i, (key, 1)),
            },
        }
    }

    /// One `key` fewer, its row dropped at zero. False, and nothing
    /// changed, when the multiset holds no `key`.
    pub(crate) fn unbump(&mut self, key: K) -> bool {
        match self {
            Rows::Inline(Some(row)) if row.0 == key => {
                row.1 -= 1;
                if row.1 == 0 {
                    *self = Rows::Inline(None);
                }
            }
            Rows::Inline(_) => return false,
            Rows::Spilled(rows) => {
                let Ok(i) = rows.binary_search_by_key(&key, |row| row.0) else {
                    return false;
                };
                rows[i].1 -= 1;
                if rows[i].1 == 0 {
                    rows.remove(i);
                    if let [row] = rows[..] {
                        *self = Rows::Inline(Some(row));
                    }
                }
            }
        }
        true
    }
}

/// Per-device /64 history: a multiset of `(net64, first-seen week)`,
/// one per address currently present, as ascending rows. A device is a
/// handful of addresses, so a net's weeks are the adjacent rows that
/// share it and its earliest week is the first of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MacNets {
    /// `((net64, week), live address count)`.
    rows: Rows<(u64, u32)>,
}

impl MacNets {
    /// Records one address appearing under `net` with first-seen
    /// `week`.
    pub fn add(&mut self, net: u64, week: u32) {
        self.rows.bump((net, week));
    }

    /// Removes one address; false, and nothing changed, when none is
    /// held under `net` with `week`.
    pub fn remove(&mut self, net: u64, week: u32) -> bool {
        self.rows.unbump((net, week))
    }

    /// Moves one address's first-seen week (a week-changed upsert);
    /// nothing changes when none is held under `net` with `old_week`.
    pub fn week_changed(&mut self, net: u64, old_week: u32, new_week: u32) {
        if self.remove(net, old_week) {
            self.add(net, new_week);
        }
    }

    /// The rows of one net at a time, ascending by net.
    fn by_net(&self) -> impl Iterator<Item = &[((u64, u32), u32)]> {
        self.rows.chunk_by(|a, b| a.0 .0 == b.0 .0)
    }

    /// Distinct /64s this device currently appears in.
    pub fn net_count(&self) -> usize {
        self.by_net().count()
    }

    /// True when no addresses remain.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `(net64, earliest first-seen week)` per net, ascending by net.
    pub fn first_weeks(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.by_net().map(|weeks| weeks[0].0)
    }

    /// Folds the full state into a digest (canonical order).
    pub fn digest_into(&self, d: &mut Digest) {
        d.word(self.net_count() as u64);
        for weeks in self.by_net() {
            d.word(weeks[0].0 .0);
            d.word(weeks.len() as u64);
            for &((_, week), count) in weeks {
                d.word(u64::from(week) << 32 | u64::from(count));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_term_matches_serve_fold_shape() {
        // Odd by construction (the `| 1`): a zero term could hide a
        // dropped entry from the additive checksum.
        for (bits, week) in [(0u128, 0u32), (42, 7), (u128::MAX, u32::MAX)] {
            assert_eq!(content_term(bits, week) & 1, 1);
        }
        // Commutative and invertible folding.
        let a = fold_content(fold_content(0, 1, 2), 3, 4);
        let b = fold_content(fold_content(0, 3, 4), 1, 2);
        assert_eq!(a, b);
        assert_eq!(a.wrapping_sub(content_term(1, 2)), fold_content(0, 3, 4));
    }

    #[test]
    fn eui64_mac_roundtrip() {
        let mac: v6addr::Mac = "00:12:34:56:78:9a".parse().unwrap();
        let iid = Iid::from_mac(mac);
        let bits = (0x2001_0db8u128 << 96) | u128::from(iid.as_u64());
        let key = eui64_mac(bits).expect("EUI-64 shape");
        assert_eq!(key, mac.as_u64());
        // A random IID without the ff:fe filler yields nothing.
        assert_eq!(eui64_mac(0x1234_5678_9abc_def0), None);
    }

    #[test]
    fn entropy_buckets_cover_range() {
        assert_eq!(entropy_bucket(0), 0); // zero IID: zero entropy
        for bits in [7u128, 0xdead_beef_cafe_f00d, u128::MAX] {
            assert!(entropy_bucket(bits) < ENTROPY_BUCKETS);
        }
    }

    #[test]
    fn mac_nets_add_remove_symmetry() {
        let mut m = MacNets::default();
        m.add(10, 1);
        m.add(10, 1);
        m.add(20, 3);
        assert_eq!(m.net_count(), 2);
        assert_eq!(m.first_weeks().collect::<Vec<_>>(), vec![(10, 1), (20, 3)]);
        assert!(m.remove(10, 1));
        assert!(m.remove(10, 1));
        assert!(!m.is_empty());
        assert!(m.remove(20, 3));
        assert_eq!(m, MacNets::default(), "state is canonical after drain");
    }

    #[test]
    fn rows_hold_one_row_inline_and_fold_back() {
        let mut r = Rows::default();
        r.bump(5u32);
        r.bump(5);
        assert_eq!(r, Rows::Inline(Some((5, 2))));
        r.bump(3);
        r.bump(9);
        assert_eq!(*r, [(3, 1), (5, 2), (9, 1)]);
        assert!(r.unbump(3));
        assert!(r.unbump(9));
        assert_eq!(r, Rows::Inline(Some((5, 2))), "one row left: no Vec");
        assert!(!r.unbump(4), "a key it does not hold");
        assert!(r.unbump(5) && r.unbump(5));
        assert_eq!(r, Rows::default());
        assert!(!r.unbump(5));
    }

    #[test]
    fn mac_nets_week_change_moves_multiset() {
        let mut a = MacNets::default();
        a.add(10, 5);
        a.week_changed(10, 5, 2);
        let mut b = MacNets::default();
        b.add(10, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn mac_nets_ignores_what_it_does_not_hold() {
        let mut m = MacNets::default();
        m.add(10, 5);
        let held = m.clone();
        assert!(!m.remove(10, 4), "held net, other week");
        assert!(!m.remove(11, 5), "other net");
        m.week_changed(10, 4, 2);
        m.week_changed(11, 5, 2);
        assert_eq!(m, held, "re-dating an address that is not held adds none");
        assert_eq!(m.first_weeks().collect::<Vec<_>>(), vec![(10, 5)]);
    }

    #[test]
    fn entropy_bucket_matches_log2_formula() {
        // The definition, kept here so the bucket is pinned even if
        // `v6addr::iid_entropy` changes how it gets there.
        let formula = |bits: u128| {
            let mut counts = [0u32; 16];
            for n in iid_of(bits).nibbles() {
                counts[n as usize] += 1;
            }
            let mut h = 0.0f64;
            for c in counts.into_iter().filter(|&c| c > 0) {
                let p = f64::from(c) / 16.0;
                h -= p * p.log2();
            }
            ((h / 4.0 * ENTROPY_BUCKETS as f64) as usize).min(ENTROPY_BUCKETS - 1)
        };
        // Every shape of nibble-count vector (the 231 partitions of
        // 16), counted from nibble 0 up and from nibble f down.
        fn shapes(left: u32, max: u32, parts: &mut Vec<u32>, out: &mut Vec<u64>) {
            if left == 0 {
                let lay = |value_of: &dyn Fn(u64) -> u64| {
                    parts.iter().zip(0..).fold(0u64, |iid, (&run, i)| {
                        (0..run).fold(iid, |iid, _| iid << 4 | value_of(i))
                    })
                };
                out.extend([lay(&|i| i), lay(&|i| 15 - i)]);
                return;
            }
            for part in (1..=left.min(max)).rev() {
                parts.push(part);
                shapes(left - part, part, parts, out);
                parts.pop();
            }
        }
        let mut iids = Vec::new();
        shapes(16, 16, &mut Vec::new(), &mut iids);
        assert_eq!(iids.len(), 2 * 231);
        let mut state = 0x5eedu64;
        iids.extend((0..1_000_000).map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state ^ state >> 29
        }));
        let mut seen = [false; ENTROPY_BUCKETS];
        for iid in iids {
            let bits = u128::from(iid) | 0x2a00_0001 << 96;
            assert_eq!(entropy_bucket(bits), formula(bits), "{iid:#018x}");
            seen[formula(bits)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every bucket was reached");
    }
}
