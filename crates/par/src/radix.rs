//! Adaptive radix sort for 192-bit `(u128, u64)` keys.
//!
//! The hitlist pipeline's dominant sort orders `(address bits, secondary)`
//! integer pairs — billions of them at paper scale. A comparison sort
//! pays `O(n log n)` cache-missing comparisons on 24-byte tuples; radix
//! techniques pay `O(n)` counting passes instead. Naively a 192-bit key
//! is 24 byte passes, which loses badly. Two observations from the
//! measurement literature make radix win:
//!
//! 1. **Hitlist addresses cluster** ("Clusters in the Expanse", IMC
//!    2018): real corpora share long /48–/64 prefixes and structured
//!    IIDs, so most key *bits* hold a single value across the whole
//!    input. One cheap OR/AND aggregation pass identifies the live
//!    bits, and everything downstream only ever touches those.
//! 2. **The live-bit count picks the strategy.** Narrow keys (at most
//!    [`LSD_MAX_LIVE`] live byte positions — dense counters, week
//!    numbers, small IID planes) take classic LSD stable counting
//!    passes, least-significant first: a handful of linear sweeps and
//!    no comparisons at all. Wide keys take a single **MSD partition**:
//!    the top [`MSD_MAX_BITS`] live bits — extracted with per-byte
//!    lookup tables, no per-bit loop — spread elements into up to 64 Ki
//!    order-correct buckets in one scatter, and each small bucket is
//!    finished with a comparison sort that now runs entirely in cache.
//!    One scatter plus in-cache sorts beats both a long LSD schedule
//!    and a whole-array comparison sort on clustered input.
//!
//! Both paths produce output element-for-element identical to
//! `sort_unstable` for keys that are injective over the element and
//! consistent with `Ord` (every call site sorts plain integer tuples).
//!
//! The sort is sequential on purpose: radix-sorting chunks on the pool
//! and merging them re-moves every element once more, and measured
//! slower than one sequential pass at every recorded size. This module
//! contains no `unsafe`.

/// Number of 8-bit digits in the 192-bit `(u128, u64)` key.
const DIGITS: usize = 24;

/// Radix-sort threshold: below this many elements the constant-factor
/// setup (live-bit detection + histograms) costs more than a comparison
/// sort of the whole input, so the kernel falls back to `sort_unstable`.
const RADIX_MIN_LEN: usize = 1 << 10;

/// Keys with at most this many live byte positions take the LSD
/// counting path; wider keys take the MSD partition path (a long LSD
/// schedule of cache-missing scatters loses to one partition pass plus
/// in-cache comparison finishes).
const LSD_MAX_LIVE: usize = 3;

/// Bucket-bit cap for the MSD partition: 2^16 count/offset slots keep
/// the bookkeeping arrays inside L2 while leaving average buckets tiny.
const MSD_MAX_BITS: usize = 16;

/// The 8-bit digit at position `d` (0 = least significant byte of the
/// minor `u64`, 23 = most significant byte of the major `u128`).
#[inline(always)]
fn digit(hi: u128, lo: u64, d: usize) -> usize {
    if d < 8 {
        ((lo >> (8 * d)) & 0xff) as usize
    } else {
        ((hi >> (8 * (d - 8))) & 0xff) as usize
    }
}

/// Global bit positions (0 = least significant bit of the minor `u64`,
/// 191 = top bit of the major `u128`) that vary across the input, most
/// significant first. Constant bits cannot affect the order.
fn live_bit_positions<T, K>(data: &[T], key: &K) -> Vec<usize>
where
    K: Fn(&T) -> (u128, u64),
{
    let (mut or_hi, mut or_lo) = (0u128, 0u64);
    let (mut and_hi, mut and_lo) = (u128::MAX, u64::MAX);
    for x in data.iter() {
        let (hi, lo) = key(x);
        or_hi |= hi;
        or_lo |= lo;
        and_hi &= hi;
        and_lo &= lo;
    }
    let varies_hi = or_hi & !and_hi;
    let varies_lo = or_lo & !and_lo;
    let mut live = Vec::new();
    for b in (0..128).rev() {
        if (varies_hi >> b) & 1 == 1 {
            live.push(64 + b);
        }
    }
    for b in (0..64).rev() {
        if (varies_lo >> b) & 1 == 1 {
            live.push(b);
        }
    }
    live
}

/// Extracts an MSD bucket index — the input's top live bits, compacted —
/// via one 256-entry table per key byte those bits touch: clustered
/// inputs concentrate their top live bits in two or three bytes, so a
/// bucket costs a couple of L1 lookups instead of a per-bit loop.
struct BucketLut {
    tables: Vec<(usize, [u32; 256])>,
}

impl BucketLut {
    /// `chosen` lists global bit positions, most significant first; bit
    /// `chosen[i]` lands at output bit `chosen.len() - 1 - i`.
    fn build(chosen: &[usize]) -> Self {
        let b_bits = chosen.len();
        let mut tables: Vec<(usize, [u32; 256])> = Vec::new();
        for (i, &p) in chosen.iter().enumerate() {
            let out_bit = b_bits - 1 - i;
            let byte = p / 8;
            let in_bit = p % 8;
            if tables.last().map(|&(j, _)| j) != Some(byte) {
                tables.push((byte, [0u32; 256]));
            }
            let tbl = &mut tables.last_mut().expect("just pushed").1;
            for (v, slot) in tbl.iter_mut().enumerate() {
                *slot |= (((v >> in_bit) & 1) as u32) << out_bit;
            }
        }
        BucketLut { tables }
    }

    #[inline(always)]
    fn bucket(&self, hi: u128, lo: u64) -> usize {
        let mut acc = 0u32;
        for (j, tbl) in self.tables.iter() {
            acc |= tbl[digit(hi, lo, *j)];
        }
        acc as usize
    }
}

/// LSD stable counting passes over the given live byte positions
/// (ascending), ping-ponging between `data` and an internal scratch.
fn lsd_sort<T, K>(data: &mut [T], key: &K, live_bytes: &[usize])
where
    T: Copy + Ord,
    K: Fn(&T) -> (u128, u64),
{
    // Histogram every live digit in one sweep.
    let mut hist = vec![[0usize; 256]; live_bytes.len()];
    for x in data.iter() {
        let (hi, lo) = key(x);
        for (h, &d) in hist.iter_mut().zip(live_bytes) {
            h[digit(hi, lo, d)] += 1;
        }
    }

    // One stable counting scatter per live digit, least significant
    // first.
    let mut scratch: Vec<T> = data.to_vec();
    let mut src_is_data = true;
    for (h, &d) in hist.iter().zip(live_bytes) {
        let mut offsets = [0usize; 256];
        let mut sum = 0usize;
        for (o, &count) in offsets.iter_mut().zip(h.iter()) {
            *o = sum;
            sum += count;
        }
        let (src, dst): (&[T], &mut [T]) = if src_is_data {
            (&*data, &mut scratch)
        } else {
            (&scratch, data)
        };
        for x in src {
            let (hi, lo) = key(x);
            let b = digit(hi, lo, d);
            dst[offsets[b]] = *x;
            offsets[b] += 1;
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&scratch);
    }
}

/// MSD partition of `data` into a new buffer by the top live bits,
/// followed by an in-place comparison finish per bucket; returns the
/// sorted buffer.
fn msd_partition_sort<T, K>(data: &[T], key: &K, live_bits: &[usize]) -> Vec<T>
where
    T: Copy + Ord,
    K: Fn(&T) -> (u128, u64),
{
    let n = data.len();
    // Aim for ~8 elements per bucket, capped so the count/offset arrays
    // stay cache-resident.
    let b_bits = ((usize::BITS - (n / 8).leading_zeros()) as usize)
        .min(MSD_MAX_BITS)
        .min(live_bits.len())
        .max(1);
    let lut = BucketLut::build(&live_bits[..b_bits]);
    let buckets = 1usize << b_bits;

    let mut counts = vec![0u32; buckets];
    for x in data.iter() {
        let (hi, lo) = key(x);
        counts[lut.bucket(hi, lo)] += 1;
    }
    let mut offsets = vec![0u32; buckets];
    let mut sum = 0u32;
    for (o, &c) in offsets.iter_mut().zip(counts.iter()) {
        *o = sum;
        sum += c;
    }
    let mut out = vec![data[0]; n];
    for x in data.iter() {
        let (hi, lo) = key(x);
        let b = lut.bucket(hi, lo);
        out[offsets[b] as usize] = *x;
        offsets[b] += 1;
    }
    // Buckets are ordered by a prefix of the key; finishing each with a
    // comparison sort yields the exact `sort_unstable` order, and the
    // small slices sort in cache.
    let mut start = 0usize;
    for &c in counts.iter() {
        let end = start + c as usize;
        out[start..end].sort_unstable();
        start = end;
    }
    out
}

/// Ascending byte positions touched by the given live bit positions.
fn live_bytes_asc(live_bits: &[usize]) -> Vec<usize> {
    let mut bytes: Vec<usize> = live_bits.iter().map(|&p| p / 8).collect();
    bytes.sort_unstable();
    bytes.dedup();
    debug_assert!(bytes.iter().all(|&b| b < DIGITS));
    bytes
}

/// Sorts `data` ascending by `key`, where `key` maps each element to a
/// `(major, minor)` pair ordered lexicographically (major first).
///
/// **Contract:** `key` must be consistent with `T`'s `Ord` and
/// injective over the element — which every call site satisfies by
/// sorting plain integer tuples by themselves. Under that contract the
/// result is element-for-element identical to `data.sort_unstable()`.
///
/// Adaptive: constant key bits are detected in one OR/AND pass and
/// never touched again; narrow keys take LSD counting passes, wide
/// keys one MSD partition with in-cache comparison finishes, and small
/// inputs fall back to a comparison sort outright.
pub fn radix_sort_by_key<T, K>(data: &mut Vec<T>, key: K)
where
    T: Copy + Ord,
    K: Fn(&T) -> (u128, u64),
{
    if data.len() < RADIX_MIN_LEN {
        data.sort_unstable();
        return;
    }
    let live = live_bit_positions(data, &key);
    if live.is_empty() {
        return;
    }
    let live_bytes = live_bytes_asc(&live);
    if live_bytes.len() <= LSD_MAX_LIVE {
        lsd_sort(data, &key, &live_bytes);
    } else {
        // The partitioned, finished buffer simply becomes `data`: no
        // copy back.
        *data = msd_partition_sort(data, &key, &live);
    }
}

/// [`radix_sort_by_key`] for the pipeline's dominant element type:
/// `(u128, u64)` pairs sorted by their natural tuple order.
pub fn radix_sort_u128(data: &mut Vec<(u128, u64)>) {
    radix_sort_by_key(data, |&(hi, lo)| (hi, lo));
}

/// The IEEE-754 total-order mapping: a monotone bijection from finite
/// `f64` bit patterns to `u64` (sign-folded so negative values order
/// below positive ones).
#[inline]
fn f64_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

/// Inverse of [`f64_key`].
#[inline]
fn f64_unkey(k: u64) -> f64 {
    f64::from_bits(if k & (1 << 63) != 0 {
        k ^ (1 << 63)
    } else {
        !k
    })
}

/// Sorts `f64` samples ascending through the IEEE-754 monotone integer
/// mapping and the adaptive radix sort — the comparison-free
/// replacement for `sort_by(partial_cmp)` over analysis sample vectors
/// (Cdf construction, rotation intervals, geolocation errors).
///
/// **Contract:** no NaNs (every call site drops them first; NaN keys
/// would sort above `+inf` rather than panic, but the debug assert
/// keeps the contract honest). `-0.0` and `0.0` map to distinct keys
/// ordered `-0.0 < 0.0` — a refinement of their `PartialOrd` equality
/// that no rank or quantile query can observe.
pub fn radix_sort_f64(data: &mut [f64]) {
    debug_assert!(data.iter().all(|v| !v.is_nan()), "NaN in radix_sort_f64");
    let mut keys: Vec<u64> = data.iter().map(|&v| f64_key(v)).collect();
    radix_sort_by_key(&mut keys, |&k| (u128::from(k), 0));
    for (dst, k) in data.iter_mut().zip(&keys) {
        *dst = f64_unkey(*k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(n: usize, seed: u64) -> Vec<(u128, u64)> {
        // Hitlist-shaped: a few thousand /48s under one /32, structured
        // low IIDs, small timestamps.
        let mut h = seed | 1;
        (0..n)
            .map(|_| {
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23) ^ 0x5eed;
                let net48 = (h >> 40) % 4096;
                let subnet = (h >> 20) % 8;
                let iid = h % 65_536;
                let bits = (0x2001_0db8u128 << 96)
                    | (u128::from(net48) << 80)
                    | (u128::from(subnet) << 64)
                    | u128::from(iid);
                (bits, h % 1_000_000)
            })
            .collect()
    }

    fn random(n: usize, seed: u64) -> Vec<(u128, u64)> {
        let mut h = seed | 1;
        (0..n)
            .map(|_| {
                h = h.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(31) ^ 0xabcd;
                let hi = (u128::from(h) << 64) | u128::from(h.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                (hi, h ^ 0xffff)
            })
            .collect()
    }

    #[test]
    fn radix_matches_sort_unstable() {
        for n in [0usize, 1, 100, RADIX_MIN_LEN - 1, RADIX_MIN_LEN, 50_000] {
            for gen in [clustered as fn(usize, u64) -> _, random] {
                let mut data = gen(n, 7);
                let mut expect = data.clone();
                expect.sort_unstable();
                radix_sort_u128(&mut data);
                assert_eq!(data, expect, "n={n}");
            }
        }
    }

    #[test]
    fn narrow_keys_take_the_lsd_path_and_match() {
        // At most 3 live bytes: a dense 16-bit low plane plus a tiny
        // secondary — the LSD counting path end to end.
        let mut h = 13u64;
        let mut data: Vec<(u128, u64)> = (0..20_000)
            .map(|_| {
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(11) ^ 7;
                ((0xfeed_0000u128 << 64) | u128::from(h % 65_536), h % 100)
            })
            .collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        radix_sort_u128(&mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn radix_handles_duplicates_and_constant_keys() {
        let mut data: Vec<(u128, u64)> = (0..5_000u64).map(|i| (42, i % 17)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        radix_sort_u128(&mut data);
        assert_eq!(data, expect);

        let mut same: Vec<(u128, u64)> = vec![(7, 7); 4_096];
        radix_sort_u128(&mut same);
        assert!(same.iter().all(|&x| x == (7, 7)));
    }

    #[test]
    fn radix_by_key_orders_u32_weeks() {
        // The ingestion element type: (bits, week) with week < 2^32.
        let mut data: Vec<(u128, u32)> = clustered(30_000, 3)
            .into_iter()
            .map(|(b, t)| (b, t as u32))
            .collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        radix_sort_by_key(&mut data, |&(b, w)| (b, u64::from(w)));
        assert_eq!(data, expect);
    }

    #[test]
    fn f64_sort_matches_partial_cmp_sort() {
        let mut h = 99u64;
        for n in [0usize, 1, 100, RADIX_MIN_LEN, 30_000] {
            let mut data: Vec<f64> = (0..n)
                .map(|i| {
                    h = h.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17) ^ 5;
                    match i % 7 {
                        0 => -(h as f64) / 1e6,
                        1 => (h % 1000) as f64,
                        2 => 0.0,
                        3 => -0.0,
                        4 => f64::from_bits(h >> 12), // denormals & small
                        5 => (h as f64) * 1e18,
                        _ => (h as f64).sqrt(),
                    }
                })
                .collect();
            let mut expect = data.clone();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            radix_sort_f64(&mut data);
            // Compare by bits so -0.0 vs 0.0 ordering is visible — the
            // radix order (-0.0 before 0.0) is a valid partial_cmp sort.
            assert!(data.windows(2).all(|w| f64_key(w[0]) <= f64_key(w[1])));
            assert_eq!(data.len(), expect.len());
            for (a, b) in data.iter().zip(&expect) {
                assert!(a == b || (*a == 0.0 && *b == 0.0), "{a} vs {b}");
            }
        }
        let mut infs = vec![f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.0];
        radix_sort_f64(&mut infs);
        assert_eq!(infs, vec![f64::NEG_INFINITY, -1.0, 1.0, f64::INFINITY]);
    }
}
