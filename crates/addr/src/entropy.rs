//! Normalized Shannon entropy of Interface Identifiers.
//!
//! The paper uses the entropy of the sixteen hex nibbles of an IID as a
//! device-type proxy (Figures 1–5): operator-assigned infrastructure
//! addresses (`::1`, `::2`) have near-zero entropy, while privacy-extension
//! client addresses are near 1.0. Entropy is *normalized* by the maximum
//! achievable over 16 nibbles, `log2(16) = 4` bits per nibble.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::iid::Iid;

/// Maximum raw Shannon entropy (bits/nibble) of a 16-nibble string.
///
/// With only 16 symbols, a 16-nibble string maxes out at 4 bits per nibble
/// (all nibbles distinct), so normalization divides by 4.
pub const MAX_NIBBLE_ENTROPY: f64 = 4.0;

/// Computes the normalized Shannon entropy of an IID's sixteen nibbles.
///
/// Returns a value in `[0, 1]`. `0.0` means all nibbles identical (e.g.
/// the all-zeros IID); `1.0` means all sixteen nibbles distinct.
///
/// Matches the paper's caveat: this is a proxy for randomness, not a test —
/// `0123:4567:89ab:cdef` scores 1.0 despite being an obvious pattern.
pub fn iid_entropy(iid: Iid) -> f64 {
    let mut counts = [0u8; 16];
    for n in iid.nibbles() {
        counts[n as usize] += 1;
    }
    let term = p_log2_p();
    let mut h = 0.0f64;
    for &c in &counts {
        h -= term[c as usize];
    }
    h / MAX_NIBBLE_ENTROPY
}

/// `p · log2 p` for `p = c/16`, indexed by the nibble count `c`.
///
/// A nibble value occurs 0 to 16 times in an IID, so these seventeen
/// terms are every one the entropy sum can need. Entry 0 is `0.0`: an
/// absent value contributes nothing, and `h - 0.0` is `h` exactly, so
/// the sum needs no branch. The entries are computed, not written out,
/// so they are whatever this platform's `log2` returns.
fn p_log2_p() -> &'static [f64; 17] {
    static TERMS: OnceLock<[f64; 17]> = OnceLock::new();
    TERMS.get_or_init(|| {
        let mut terms = [0.0f64; 17];
        for (c, term) in terms.iter_mut().enumerate().skip(1) {
            let p = c as f64 / 16.0;
            *term = p * p.log2();
        }
        terms
    })
}

/// The paper's three-way entropy banding (Figures 2b and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntropyClass {
    /// Normalized entropy `< 0.25`: manually assigned / structured IIDs.
    Low,
    /// Normalized entropy in `[0.25, 0.75)`: partially structured IIDs.
    Medium,
    /// Normalized entropy `>= 0.75`: random-looking client IIDs.
    High,
}

impl EntropyClass {
    /// Bands a normalized entropy value using the paper's thresholds.
    pub fn of_value(h: f64) -> Self {
        if h < 0.25 {
            EntropyClass::Low
        } else if h < 0.75 {
            EntropyClass::Medium
        } else {
            EntropyClass::High
        }
    }

    /// Bands an IID directly.
    pub fn of_iid(iid: Iid) -> Self {
        Self::of_value(iid_entropy(iid))
    }

    /// Human-readable label as used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            EntropyClass::Low => "Low IID Entropy (< 0.25)",
            EntropyClass::Medium => "Medium IID Entropy (0.25 <= x < 0.75)",
            EntropyClass::High => "High IID Entropy (0.75 <=)",
        }
    }

    /// All classes in ascending order.
    pub const ALL: [EntropyClass; 3] =
        [EntropyClass::Low, EntropyClass::Medium, EntropyClass::High];
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, term by term: what `iid_entropy` must equal to
    /// the last bit.
    fn log2_formula(iid: Iid) -> f64 {
        let mut counts = [0u8; 16];
        for n in iid.nibbles() {
            counts[n as usize] += 1;
        }
        let mut h = 0.0f64;
        for &c in &counts {
            if c > 0 {
                let p = c as f64 / 16.0;
                h -= p * p.log2();
            }
        }
        h / MAX_NIBBLE_ENTROPY
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every way to split 16 into non-increasing positive parts.
    fn partitions(left: u8, max: u8, parts: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if left == 0 {
            out.push(parts.clone());
            return;
        }
        for part in (1..=left.min(max)).rev() {
            parts.push(part);
            partitions(left - part, part, parts, out);
            parts.pop();
        }
    }

    #[test]
    fn table_sum_is_bit_identical_to_the_log2_formula() {
        let mut shapes = Vec::new();
        partitions(16, 16, &mut Vec::new(), &mut shapes);
        assert_eq!(shapes.len(), 231);
        let mut rng = 0x1d_e17;
        let check = |iid: Iid| {
            let (got, want) = (iid_entropy(iid), log2_formula(iid));
            assert_eq!(got.to_bits(), want.to_bits(), "{iid:?}: {got} vs {want}");
        };
        for shape in &shapes {
            // Which nibble value gets which count, and where in the IID
            // each nibble sits, both shuffled: the sum runs in value
            // order, so the same counts meet it in a different order.
            for _ in 0..16 {
                let mut values: Vec<u64> = (0..16).collect();
                for i in (1..16).rev() {
                    values.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
                }
                let mut nibbles: Vec<u64> = shape
                    .iter()
                    .zip(&values)
                    .flat_map(|(&count, &v)| std::iter::repeat_n(v, count as usize))
                    .collect();
                for i in (1..16).rev() {
                    nibbles.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
                }
                check(Iid::new(nibbles.iter().fold(0, |acc, n| acc << 4 | n)));
            }
        }
        for _ in 0..1_000_000 {
            check(Iid::new(splitmix(&mut rng)));
        }
    }

    #[test]
    fn zero_iid_has_zero_entropy() {
        assert_eq!(iid_entropy(Iid::ZERO), 0.0);
        assert_eq!(iid_entropy(Iid::new(0x1111_1111_1111_1111)), 0.0);
    }

    #[test]
    fn pandigital_iid_has_unit_entropy() {
        assert!((iid_entropy(Iid::new(0x0123_4567_89ab_cdef)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_byte_iid_is_low_entropy() {
        // ::1 — fifteen zero nibbles and one `1`.
        let h = iid_entropy(Iid::new(1));
        // H = -(15/16)log2(15/16) - (1/16)log2(1/16) ≈ 0.337 bits → 0.084.
        assert!(h > 0.0 && h < 0.25, "h = {h}");
        assert_eq!(EntropyClass::of_iid(Iid::new(1)), EntropyClass::Low);
    }

    #[test]
    fn two_symbol_half_split() {
        // Eight 0s and eight fs: exactly 1 bit/nibble → 0.25 normalized.
        let h = iid_entropy(Iid::new(0x0f0f_0f0f_0f0f_0f0f));
        assert!((h - 0.25).abs() < 1e-12);
        assert_eq!(EntropyClass::of_value(h), EntropyClass::Medium);
    }

    #[test]
    fn entropy_bounds() {
        for v in [
            0u64,
            1,
            0xff,
            0xdead_beef,
            u64::MAX,
            0x0212_34ff_fe56_789a,
            0x5555_5555_5555_5555,
        ] {
            let h = iid_entropy(Iid::new(v));
            assert!(
                (0.0..=1.0).contains(&h),
                "entropy {h} out of range for {v:#x}"
            );
        }
    }

    #[test]
    fn class_thresholds_are_half_open() {
        assert_eq!(EntropyClass::of_value(0.2499), EntropyClass::Low);
        assert_eq!(EntropyClass::of_value(0.25), EntropyClass::Medium);
        assert_eq!(EntropyClass::of_value(0.7499), EntropyClass::Medium);
        assert_eq!(EntropyClass::of_value(0.75), EntropyClass::High);
        assert_eq!(EntropyClass::of_value(1.0), EntropyClass::High);
    }

    #[test]
    fn eui64_iids_are_medium_to_high() {
        // EUI-64 IIDs contain the fixed ff:fe plus vendor structure; they
        // typically land in the medium band — distinguishable from both
        // manual and fully random addresses.
        let iid = Iid::new(0x0212_34ff_fe56_789a);
        let h = iid_entropy(iid);
        assert!(h >= 0.25, "h = {h}");
    }
}
