//! Deterministic pseudo-random number generation for the simulator.
//!
//! Everything in the synthetic Internet must be bit-reproducible from a
//! single 64-bit seed, across platforms and crate versions. We therefore
//! implement xoshiro256++ (plus SplitMix64 seeding) in-crate instead of
//! depending on an external RNG whose stream might change under us.
//!
//! The central idiom is [`Rng::fork`]: deriving an *independent* child
//! stream from a label and index, so that (say) device 1234's address
//! choices never depend on how many random draws device 1233 made. This is
//! what makes lazy/statistical event generation possible — any entity's
//! randomness can be regenerated on demand.

/// SplitMix64 step; used for seeding and for one-shot hashing.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The FNV-1a 64 offset basis: the state an unseeded hash starts from.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64: folds `bytes` into the running state `h`. The workspace's
/// one byte-hash loop — record checksums, operator digests, the artifact
/// digest and fork seeds all start it from their own basis
/// and feed it their own byte order.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes an arbitrary byte string plus a seed into 64 bits (FNV-1a mixed
/// through SplitMix64). Used to derive fork seeds from labels.
pub fn hash64(seed: u64, label: &[u8]) -> u64 {
    let mut s = fnv1a(FNV_BASIS ^ seed, label);
    splitmix64(&mut s)
}

/// [`hash64`] of the label `name/n0/n1/…` (each number in decimal),
/// folded from the stack: `hash_label(s, "dev", &[a, l, h])` equals
/// `hash64(s, format!("dev/{a}/{l}/{h}").as_bytes())` without the
/// `String`. The simulator's one label idiom.
pub fn hash_label(seed: u64, name: &str, nums: &[u64]) -> u64 {
    let mut s = fnv1a(FNV_BASIS ^ seed, name.as_bytes());
    for &n in nums {
        // u64::MAX has 20 digits; they fill the buffer from the end.
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        s = fnv1a(fnv1a(s, b"/"), &digits[at..]);
    }
    splitmix64(&mut s)
}

/// A xoshiro256++ PRNG.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro's all-zero state is absorbing; SplitMix64 never produces
        // four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Rng { s }
    }

    /// Derives an independent child generator from a label and index.
    ///
    /// `fork(b"device", 42)` always yields the same stream for the same
    /// parent seed, regardless of draw order elsewhere.
    pub fn fork(&self, label: &[u8], index: u64) -> Rng {
        let base = hash64(self.s[0] ^ self.s[2].rotate_left(17), label);
        Rng::new(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Next 128 uniformly random bits.
    #[inline]
    pub fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniformly selects an element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Selects an index according to non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse-CDF; 1 - f64() is in (0, 1] so ln is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Poisson-distributed count (Knuth's method; fine for small means,
    /// normal approximation above 64 keeps it O(1)).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 64.0 {
            // Normal approximation with continuity correction.
            let g = self.gaussian();
            let v = mean + mean.sqrt() * g;
            return v.max(0.0).round() as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Standard normal deviate (Box–Muller, one value per call).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_order_independent() {
        let parent = Rng::new(7);
        let mut c1 = parent.fork(b"device", 10);
        let mut discard = parent.fork(b"device", 11);
        let _ = discard.next_u64();
        let mut c2 = parent.fork(b"device", 10);
        for _ in 0..10 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let parent = Rng::new(7);
        let mut a = parent.fork(b"alpha", 0);
        let mut b = parent.fork(b"beta", 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..100 {
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(5);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = Rng::new(11);
        for _ in 0..200 {
            let i = r.weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_rough_proportions() {
        let mut r = Rng::new(13);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[r.weighted(&[1.0, 3.0])] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut r = Rng::new(17);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.poisson(4.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_gaussian() {
        let mut r = Rng::new(19);
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| r.poisson(100.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 100.0).abs() < 1.5, "mean = {mean}");
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = Rng::new(23);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(31);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn hash64_differs_by_label_and_seed() {
        assert_ne!(hash64(1, b"a"), hash64(1, b"b"));
        assert_ne!(hash64(1, b"a"), hash64(2, b"a"));
        assert_eq!(hash64(1, b"a"), hash64(1, b"a"));
    }

    #[test]
    fn hash_label_equals_the_formatted_label() {
        for n in [0, 9, 10, u64::from(u16::MAX), u64::MAX] {
            assert_eq!(
                hash_label(5, "hperm", &[n]),
                hash64(5, format!("hperm/{n}").as_bytes())
            );
            assert_eq!(
                hash_label(5, "dev", &[n, 10, n]),
                hash64(5, format!("dev/{n}/10/{n}").as_bytes())
            );
        }
        assert_eq!(hash_label(5, "x", &[]), hash64(5, b"x"));
    }
}
