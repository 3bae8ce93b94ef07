//! Blocked bloom filter: the optional approximate-membership front for
//! the hot membership probe ([`crate::snapshot::Snapshot::membership`]).
//!
//! Layout: one 512-bit block (a cache line) per 32 keys, so every probe
//! touches exactly one cache line. Each key sets `PROBES` bits inside
//! its block, derived from two seeded FNV-1a hashes — zero dependencies
//! and deterministic across platforms. With 16 bits budgeted per key
//! and 6 probes the false-positive rate lands around 1% (the blocked
//! layout costs roughly 1.5× the unblocked rate in exchange for the
//! single-cache-line probe); `crates/serve/tests/compressed_equivalence.rs`
//! pins an upper bound.
//!
//! A bloom front can only say "definitely absent" or "ask the exact
//! tier": false negatives are impossible by construction, so enabling
//! it (the `V6_BLOOM` env toggle, or
//! [`crate::snapshot::SnapshotBuilder::with_bloom`]) never changes a
//! query answer — only how much work an absent-address miss costs.

use v6netsim::rng;

/// Bits budgeted per key (filter sizing).
const BITS_PER_KEY: usize = 16;

/// Words per block: 8 × 64 = 512 bits, one cache line.
const BLOCK_WORDS: usize = 8;

/// Bits set per key inside its block.
const PROBES: usize = 6;

/// Seeded FNV-1a over the 16 address bytes.
fn fnv1a(bits: u128, seed: u64) -> u64 {
    rng::fnv1a(rng::FNV_BASIS ^ seed, &bits.to_le_bytes())
}

/// A blocked bloom filter over address bits.
#[derive(Debug, Clone)]
pub struct BlockedBloom {
    blocks: Vec<[u64; BLOCK_WORDS]>,
    seed: u64,
}

impl BlockedBloom {
    /// Builds a filter sized for the given keys (seeded; two filters
    /// built from the same keys and seed are identical).
    pub fn build(seed: u64, keys: impl Iterator<Item = u128>, count: usize) -> BlockedBloom {
        let block_count = (count * BITS_PER_KEY).div_ceil(BLOCK_WORDS * 64).max(1);
        let mut bloom = BlockedBloom {
            blocks: vec![[0u64; BLOCK_WORDS]; block_count],
            seed,
        };
        for bits in keys {
            let (block, positions) = bloom.probe(bits);
            for p in positions {
                bloom.blocks[block][p >> 6] |= 1u64 << (p & 63);
            }
        }
        bloom
    }

    /// The block index and the [`PROBES`] bit positions for a key.
    fn probe(&self, bits: u128) -> (usize, [usize; PROBES]) {
        let h1 = fnv1a(bits, self.seed);
        let h2 = fnv1a(bits, self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let block = (h1 % self.blocks.len() as u64) as usize;
        let mut positions = [0usize; PROBES];
        for (i, p) in positions.iter_mut().enumerate() {
            // 9 bits address 512 positions; h2 carries 54 > 9 × PROBES.
            *p = ((h2 >> (9 * i)) & 511) as usize;
        }
        (block, positions)
    }

    /// `false` means the key is definitely absent; `true` means the
    /// exact tier must be consulted.
    pub fn may_contain(&self, bits: u128) -> bool {
        let (block, positions) = self.probe(bits);
        let b = &self.blocks[block];
        positions
            .iter()
            .all(|&p| b[p >> 6] & (1u64 << (p & 63)) != 0)
    }

    /// Heap bytes the filter occupies.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.len() * BLOCK_WORDS * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, seed: u64) -> Vec<u128> {
        let mut h = seed | 1;
        (0..n)
            .map(|_| {
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) ^ 0x5eed;
                (0x2001u128 << 112) | u128::from(h)
            })
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000, 3);
        let bloom = BlockedBloom::build(42, ks.iter().copied(), ks.len());
        assert!(ks.iter().all(|&k| bloom.may_contain(k)));
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        let ks = keys(50_000, 3);
        let bloom = BlockedBloom::build(42, ks.iter().copied(), ks.len());
        let probes = keys(100_000, 999); // disjoint seed: effectively all absent
        let fp = probes.iter().filter(|&&p| bloom.may_contain(p)).count();
        let rate = fp as f64 / probes.len() as f64;
        assert!(rate < 0.03, "false-positive rate {rate} exceeds 3%");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bloom = BlockedBloom::build(7, std::iter::empty(), 0);
        assert!(!bloom.may_contain(123));
        assert!(bloom.heap_bytes() >= 64);
    }
}
