//! Address → AS attribution for per-AS streaming analytics.
//!
//! Delta records carry only `(bits, week)`; the per-AS operators
//! ([`crate::EntropyProfile`], the per-AS and per-country counts of
//! [`crate::DeviceTracker`]) need to know which network owns each
//! address. An [`AsResolver`] supplies that mapping.
//! The batch pipeline builds a [`PrefixAsTable`] from the simulated
//! world's routing table; production deployments would build one from
//! a BGP dump — either way the resolver must be **stable across the
//! stream's lifetime**, because re-attributing history is exactly the
//! kind of hidden global pass this crate exists to eliminate.

use v6addr::{Prefix, PrefixMap};

/// The attribution an [`AsResolver`] returns for one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsTag {
    /// Dense AS identifier (an index, not a real ASN — callers map
    /// back through their own table).
    pub index: u16,
    /// Registration country, as two big-endian ISO 3166-1 alpha-2
    /// bytes (`u16::from_be_bytes(*b"DE")`).
    pub country: u16,
}

/// Maps an address to the AS that announces it.
pub trait AsResolver {
    /// The owning AS, or `None` when no covering route exists
    /// (unrouted addresses are skipped by per-AS operators).
    fn resolve(&self, bits: u128) -> Option<AsTag>;

    /// [`AsResolver::resolve`] of `bits`, and the last address of the
    /// run from `bits` on that resolves the same: a caller walking
    /// sorted addresses asks again only past it. The default claims no
    /// run beyond `bits` itself.
    fn resolve_span(&self, bits: u128) -> (Option<AsTag>, u128) {
        (self.resolve(bits), bits)
    }
}

/// A longest-prefix table over [`PrefixMap`] — the standard
/// [`AsResolver`].
///
/// Entries are `(prefix_bits, prefix_len, tag)`. Prefixes may nest (a
/// more-specific announcement inside a covering one resolves to the
/// more specific tag), and of several tags for one prefix the last wins.
#[derive(Debug, Clone, Default)]
pub struct PrefixAsTable(PrefixMap<AsTag>);

impl PrefixAsTable {
    /// Builds a table from `(prefix_bits, prefix_len, tag)` triples.
    ///
    /// # Panics
    /// Panics if a prefix length exceeds 128.
    pub fn new(prefixes: Vec<(u128, u8, AsTag)>) -> PrefixAsTable {
        PrefixAsTable(
            prefixes
                .into_iter()
                .map(|(bits, len, tag)| (Prefix::from_bits(bits, len), tag))
                .collect(),
        )
    }

    /// Number of prefixes in the table.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the table holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl AsResolver for PrefixAsTable {
    fn resolve(&self, bits: u128) -> Option<AsTag> {
        self.0.longest_match(bits.into()).map(|(_, &tag)| tag)
    }

    fn resolve_span(&self, bits: u128) -> (Option<AsTag>, u128) {
        let (found, until) = self.0.longest_match_span(bits.into());
        (found.map(|(_, &tag)| tag), until.into())
    }
}

/// Encodes a two-letter country code as the `u16` [`AsTag::country`]
/// representation.
#[inline]
pub fn country_code(code: [u8; 2]) -> u16 {
    u16::from_be_bytes(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(index: u16) -> AsTag {
        AsTag {
            index,
            country: country_code(*b"DE"),
        }
    }

    #[test]
    fn resolves_inside_and_outside_prefixes() {
        let table = PrefixAsTable::new(vec![
            (0x2a00_0001u128 << 96, 32, tag(1)),
            (0x2a00_0002u128 << 96, 32, tag(2)),
        ]);
        assert_eq!(
            table.resolve((0x2a00_0001u128 << 96) | 42).unwrap().index,
            1
        );
        assert_eq!(
            table
                .resolve((0x2a00_0002u128 << 96) | (1 << 95))
                .unwrap()
                .index,
            2
        );
        assert_eq!(table.resolve(0x2a00_0003u128 << 96), None);
        assert_eq!(table.resolve(0), None);
    }

    #[test]
    fn nested_prefixes_resolve_most_specific() {
        let covering = 0x2a00_0001u128 << 96;
        let inside = covering | 1 << 90;
        let table = PrefixAsTable::new(vec![
            (covering, 32, tag(1)),
            (inside, 48, tag(2)),
            (inside, 48, tag(3)),
        ]);
        assert_eq!(table.len(), 2);
        assert_eq!(table.resolve(inside | 42).unwrap().index, 3);
        assert_eq!(table.resolve(covering | 42).unwrap().index, 1);
        assert_eq!(table.resolve(covering - 1), None);
    }
}
