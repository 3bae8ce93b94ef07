//! # v6addr — IPv6 address mechanics
//!
//! Foundation crate for the `ipv6-hitlists` workspace, a reproduction of
//! *IPv6 Hitlists at Scale: Be Careful What You Wish For* (SIGCOMM 2023).
//!
//! Everything the paper's analyses do with an IPv6 address lives here:
//!
//! * [`Prefix`] — CIDR prefixes with containment, splitting and aggregation
//!   (the paper aggregates addresses to /48s and studies /64 customer nets).
//! * [`Iid`] — the 64-bit Interface Identifier (lower half of an address),
//!   with nibble access and classification helpers.
//! * [`entropy`] — normalized Shannon entropy of an IID, the paper's proxy
//!   for "is this a random client address or a manually assigned one".
//! * [`Mac`] / [`Oui`] / [`eui64`] — MAC addresses, vendor OUIs, and the
//!   EUI-64 SLAAC embedding that leaks them into IPv6 addresses (§5).
//! * [`OuiDb`](oui_db::OuiDb) — an IEEE-registry-like OUI→manufacturer
//!   database (synthetic; seeded with the paper's Table 2 vendors).
//! * [`ipv4_embed`] — detection of IPv4 addresses embedded in IIDs.
//! * [`pattern`] — the seven address classes of the paper's Figure 5.
//! * [`AddrSet`] — a compact sorted set of addresses with the
//!   set algebra (intersection counts, /48 aggregation) Table 1 needs.
//! * [`PrefixMap`] — the one prefix → value index, for
//!   longest-prefix-match lookups (AS origin, alias lists, geo DBs).
//!
//! The crate is `std`-only, has no I/O, and every operation is deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entropy;
pub mod eui64;
pub mod ipv4_embed;
pub mod mac;
pub mod oui_db;
pub mod pattern;
pub mod prefix;
pub mod prefix_map;
pub mod set;

mod iid;

pub use entropy::{iid_entropy, EntropyClass};
pub use iid::Iid;
pub use mac::{Mac, Oui};
pub use pattern::AddressClass;
pub use prefix::{Prefix, PrefixParseError};
pub use prefix_map::PrefixMap;
pub use set::{shard48, AddrSet};

use std::net::Ipv6Addr;

/// Converts an [`Ipv6Addr`] to its 128-bit big-endian integer form.
#[inline]
pub fn to_u128(addr: Ipv6Addr) -> u128 {
    u128::from(addr)
}

/// Converts a 128-bit big-endian integer to an [`Ipv6Addr`].
#[inline]
pub fn from_u128(bits: u128) -> Ipv6Addr {
    Ipv6Addr::from(bits)
}

/// Extracts the upper 64 bits (the routing prefix + subnet id) of an address.
#[inline]
pub fn upper64(addr: Ipv6Addr) -> u64 {
    (to_u128(addr) >> 64) as u64
}

/// Extracts the lower 64 bits of an address as an [`Iid`].
#[inline]
pub fn iid(addr: Ipv6Addr) -> Iid {
    Iid::from_addr(addr)
}

/// Builds an address from its upper 64 bits and an [`Iid`].
#[inline]
pub fn join(upper: u64, iid: Iid) -> Ipv6Addr {
    from_u128(((upper as u128) << 64) | iid.as_u64() as u128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_round_trip() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(from_u128(to_u128(a)), a);
    }

    #[test]
    fn upper_and_iid_split() {
        let a: Ipv6Addr = "2001:db8:1:2:3:4:5:6".parse().unwrap();
        assert_eq!(upper64(a), 0x2001_0db8_0001_0002);
        assert_eq!(iid(a).as_u64(), 0x0003_0004_0005_0006);
        assert_eq!(join(upper64(a), iid(a)), a);
    }
}
