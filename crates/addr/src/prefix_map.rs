//! A sorted prefix table with longest-prefix-match lookup.
//!
//! Longest-prefix-match is everywhere in this reproduction: mapping an
//! address to its origin AS, checking probe targets against alias lists
//! (the IPv6 Hitlist's "aliased prefixes" filtering step), and the
//! MaxMind-style geolocation lookups. [`PrefixMap`] is the one
//! prefix → value index behind all of them.
//!
//! Entries live in one `Vec` sorted by `(bits, len)`, each carrying the
//! index of the most specific stored prefix that encloses it. Canonical
//! prefixes are disjoint or nested, so everything sorted between a
//! prefix and a probe it covers lies inside that prefix: the entry just
//! at or below a probe is either the answer or a descendant of it, and
//! a lookup is one binary search plus a climb of at most nesting-depth
//! links. A mutation shifts the tail of the `Vec` and recomputes that
//! tail's links in one linear pass; bulk loads go through `collect()`,
//! which sorts once.

use crate::prefix::Prefix;
use std::net::Ipv6Addr;

/// The `up` link of an entry no stored prefix encloses.
const TOP: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<T> {
    prefix: Prefix,
    /// Index of the most specific other entry enclosing `prefix`.
    up: u32,
    value: T,
}

/// A map from IPv6 prefixes to values with longest-prefix-match lookup.
#[derive(Debug, Clone)]
pub struct PrefixMap<T> {
    /// Sorted by `(bits, len)`, one entry per prefix.
    entries: Vec<Entry<T>>,
}

impl<T> Default for PrefixMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        PrefixMap {
            entries: Vec::new(),
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, prefix: &Prefix) -> Result<usize, usize> {
        self.entries.binary_search_by_key(prefix, |e| e.prefix)
    }

    /// The most specific entry enclosing `prefix`, or [`TOP`]. `below`
    /// is where `prefix` sorts (everything before it sorts at or before
    /// `prefix`), so `below - 1` is the answer or lies inside it and the
    /// answer is on its `up` chain.
    fn enclosing(&self, below: usize, prefix: &Prefix) -> u32 {
        let mut at = below.checked_sub(1).map_or(TOP, |i| i as u32);
        while at != TOP {
            let e = &self.entries[at as usize];
            if e.prefix.contains_prefix(prefix) {
                break;
            }
            at = e.up;
        }
        at
    }

    /// Recomputes the `up` links of `entries[from..]`, in order, each from
    /// the links before it. An edit at `from` leaves earlier links valid:
    /// a link only ever points at an earlier entry.
    fn relink(&mut self, from: usize) {
        assert!(self.entries.len() < TOP as usize, "PrefixMap is full");
        for i in from..self.entries.len() {
            let prefix = self.entries[i].prefix;
            self.entries[i].up = self.enclosing(i, &prefix);
        }
    }

    /// Inserts a prefix, returning the previous value if it was present.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        match self.position(&prefix) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].value, value)),
            Err(i) => {
                let up = TOP;
                self.entries.insert(i, Entry { prefix, up, value });
                self.relink(i);
                None
            }
        }
    }

    /// Exact-match lookup of one prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        let i = self.position(prefix).ok()?;
        Some(&self.entries[i].value)
    }

    /// Removes a prefix, returning its value if it was present.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<T> {
        let i = self.position(prefix).ok()?;
        let old = self.entries.remove(i);
        self.relink(i);
        Some(old.value)
    }

    /// Longest-prefix-match: the most specific stored prefix covering
    /// `addr`, with its value.
    pub fn longest_match(&self, addr: Ipv6Addr) -> Option<(Prefix, &T)> {
        self.covering_prefix(&Prefix::new(addr, 128))
    }

    /// [`PrefixMap::longest_match`] of `addr`, and the last address of
    /// the run from `addr` on that gets the same answer: the smaller of
    /// the match's last address and the address before the next stored
    /// prefix starts. No prefix starts inside the run, so all of it gets
    /// `addr`'s answer; the address after it lies outside the match or
    /// is the start of the next prefix, so it does not.
    pub fn longest_match_span(&self, addr: Ipv6Addr) -> (Option<(Prefix, &T)>, Ipv6Addr) {
        let probe = Prefix::new(addr, 128);
        let below = self.entries.partition_point(|e| e.prefix <= probe);
        let found = self.entries.get(self.enclosing(below, &probe) as usize);
        // `entries[below]` sorts after `probe`, so it starts above `addr`.
        let next = (self.entries.get(below)).map_or(u128::MAX, |e| e.prefix.bits() - 1);
        let until = found.map_or(next, |e| next.min(e.prefix.last().into()));
        (found.map(|e| (e.prefix, &e.value)), until.into())
    }

    /// True when any stored prefix covers `addr`.
    pub fn covers(&self, addr: Ipv6Addr) -> bool {
        self.longest_match(addr).is_some()
    }

    /// The most specific stored prefix covering `prefix` entirely
    /// (i.e. a stored prefix at least as short that contains it).
    pub fn covering_prefix(&self, prefix: &Prefix) -> Option<(Prefix, &T)> {
        let below = self.entries.partition_point(|e| e.prefix <= *prefix);
        let e = self.entries.get(self.enclosing(below, prefix) as usize)?;
        Some((e.prefix, &e.value))
    }

    /// Iterates all `(prefix, value)` entries in lexicographic bit order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            entries: self.entries.iter(),
        }
    }
}

/// Iterator over a [`PrefixMap`]'s entries.
pub struct Iter<'a, T> {
    entries: std::slice::Iter<'a, Entry<T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        self.entries.next().map(|e| (e.prefix, &e.value))
    }
}

/// Sorts once; of several values for one prefix the last is kept.
impl<T> FromIterator<(Prefix, T)> for PrefixMap<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let up = TOP;
        let mut entries: Vec<Entry<T>> = iter
            .into_iter()
            .map(|(prefix, value)| Entry { prefix, up, value })
            .collect();
        // Stable, so equal prefixes stay in input order and the swap
        // leaves the last one's value in the entry `dedup_by` keeps.
        entries.sort_by_key(|e| e.prefix);
        entries.dedup_by(|later, kept| {
            let same = later.prefix == kept.prefix;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        let mut m = PrefixMap { entries };
        m.relink(0);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_exact() {
        let mut m = PrefixMap::new();
        assert_eq!(m.insert(p("2001:db8::/32"), 1), None);
        assert_eq!(m.insert(p("2001:db8::/32"), 2), Some(1));
        assert_eq!(m.get(&p("2001:db8::/32")), Some(&2));
        assert_eq!(m.get(&p("2001:db8::/33")), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut m = PrefixMap::new();
        m.insert(p("2001:db8::/32"), "coarse");
        m.insert(p("2001:db8:1::/48"), "fine");
        let (pre, v) = m.longest_match(a("2001:db8:1::42")).unwrap();
        assert_eq!(*v, "fine");
        assert_eq!(pre, p("2001:db8:1::/48"));
        let (pre, v) = m.longest_match(a("2001:db8:2::42")).unwrap();
        assert_eq!(*v, "coarse");
        assert_eq!(pre, p("2001:db8::/32"));
        assert!(m.longest_match(a("2001:db9::1")).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut m = PrefixMap::new();
        m.insert(Prefix::ALL, 0);
        assert!(m.covers(a("::1")));
        assert!(m.covers(a("ffff::1")));
    }

    #[test]
    fn remove_clears_value() {
        let mut m = PrefixMap::new();
        m.insert(p("2001:db8::/32"), 7);
        assert_eq!(m.remove(&p("2001:db8::/32")), Some(7));
        assert_eq!(m.remove(&p("2001:db8::/32")), None);
        assert!(m.is_empty());
        assert!(!m.covers(a("2001:db8::1")));
        // Removing the middle of a chain hands its children to its parent.
        let mut m: PrefixMap<u8> = [
            (p("2001:db8::/32"), 32),
            (p("2001:db8:1::/48"), 48),
            (p("2001:db8:1:2::/64"), 64),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.remove(&p("2001:db8:1::/48")), Some(48));
        assert_eq!(m.longest_match(a("2001:db8:1:2::1")).unwrap().1, &64);
        assert_eq!(m.longest_match(a("2001:db8:1:3::1")).unwrap().1, &32);
    }

    #[test]
    fn covering_prefix_for_prefixes() {
        let mut m = PrefixMap::new();
        m.insert(p("2001:db8::/32"), ());
        assert!(m.covering_prefix(&p("2001:db8:1::/48")).is_some());
        assert!(m.covering_prefix(&p("2001:db9::/48")).is_none());
        // A /64 entry does not cover its own /48 parent.
        let mut m2: PrefixMap<()> = PrefixMap::new();
        m2.insert(p("2001:db8:1:1::/64"), ());
        assert!(m2.covering_prefix(&p("2001:db8:1::/48")).is_none());
    }

    #[test]
    fn iter_in_bit_order() {
        let mut m = PrefixMap::new();
        m.insert(p("4000::/2"), 3);
        m.insert(p("2001:db8::/32"), 2);
        m.insert(p("::/1"), 1);
        let got: Vec<_> = m.iter().map(|(pre, &v)| (pre, v)).collect();
        assert_eq!(
            got,
            vec![(p("::/1"), 1), (p("2001:db8::/32"), 2), (p("4000::/2"), 3)]
        );
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn from_iterator() {
        let m: PrefixMap<u32> = [(p("2001:db8::/32"), 1), (p("2001:db8:1::/48"), 2)]
            .into_iter()
            .collect();
        assert_eq!(m.len(), 2);
        // Unsorted input, and the last value given for a prefix wins.
        let m: PrefixMap<u32> = [
            (p("2001:db8:1::/48"), 2),
            (p("2001:db8::/32"), 1),
            (p("2001:db8:1::/48"), 3),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&p("2001:db8:1::/48")), Some(&3));
        assert_eq!(m.longest_match(a("2001:db8:2::1")).unwrap().1, &1);
    }

    #[test]
    fn nested_values_on_same_path() {
        let mut m = PrefixMap::new();
        m.insert(p("2001:db8::/32"), 32);
        m.insert(p("2001:db8::/48"), 48);
        m.insert(p("2001:db8::/64"), 64);
        let (_, v) = m.longest_match(a("2001:db8::1")).unwrap();
        assert_eq!(*v, 64);
        let (_, v) = m.longest_match(a("2001:db8:0:1::1")).unwrap();
        assert_eq!(*v, 48);
        let (_, v) = m.longest_match(a("2001:db8:1::1")).unwrap();
        assert_eq!(*v, 32);
    }
}
