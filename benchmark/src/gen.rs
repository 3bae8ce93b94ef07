//! Seeded inputs and the model every answer is checked against.
//!
//! Address space: 64 "ASes", each one /32 (`2a00:100::/32` upward);
//! a /48 is an AS plus a 16-bit site, a /64 a /48 plus a 16-bit
//! subnet. A quarter of the interface identifiers are EUI-64, so the
//! device and rotation operators of `v6stream` have work to do.

use std::collections::HashSet;

use v6addr::Prefix;
use v6wire::{Request, Response, WireLookup};

use crate::util::Rng;

pub const AS_COUNT: u64 = 64;

/// The /32 of AS `i`.
pub fn as_net(i: u64) -> u128 {
    (0x2a00_0100u128 + u128::from(i)) << 96
}

/// A random /48 (AS + site), low 80 bits zero.
pub fn random_net48(rng: &mut Rng) -> u128 {
    as_net(rng.below(AS_COUNT)) | (u128::from(rng.below(1 << 16)) << 80)
}

/// A random interface identifier: one in four is EUI-64 (`ff:fe` in the
/// middle, MAC drawn from 2^20 devices of one vendor), the rest opaque.
pub fn random_iid(rng: &mut Rng) -> u64 {
    if rng.below(4) == 0 {
        let nic = rng.below(1 << 20);
        (0x0002_5056_u64 << 40) | (0xfffe << 24) | nic
    } else {
        rng.next_u64() | 1
    }
}

/// A clustered corpus: `/48`s of 16 `/64`s of 16 addresses each, so the
/// compressed run's bytes per address are the same for every seed.
pub struct Corpus {
    /// `(bits, first week)`, sorted by bits, no duplicates.
    pub entries: Vec<(u128, u32)>,
    /// Aliased /48s (network bits), sorted.
    pub aliases: Vec<u128>,
    /// `newer[w]`: entries first seen after week `w`.
    newer: Vec<u64>,
}

/// First-seen weeks are drawn from `0..WEEKS`.
pub const WEEKS: u64 = 8;

const PER_64: usize = 16;
const PER_48: usize = 16;

pub fn clustered_corpus(rng: &mut Rng, addrs: usize, aliased: usize) -> Corpus {
    assert!(addrs.is_multiple_of(PER_64 * PER_48));
    let mut nets: HashSet<u128> = HashSet::new();
    let mut order = Vec::new();
    while order.len() < addrs / (PER_64 * PER_48) {
        let net = random_net48(rng);
        if nets.insert(net) {
            order.push(net);
        }
    }
    let mut entries = Vec::with_capacity(addrs);
    for &net48 in &order {
        let mut subnets: Vec<u64> = Vec::with_capacity(PER_48);
        while subnets.len() < PER_48 {
            let s = rng.below(1 << 16);
            if !subnets.contains(&s) {
                subnets.push(s);
            }
        }
        for s in subnets {
            let net64 = net48 | (u128::from(s) << 64);
            let mut iids: Vec<u64> = Vec::with_capacity(PER_64);
            while iids.len() < PER_64 {
                let iid = random_iid(rng);
                if !iids.contains(&iid) {
                    iids.push(iid);
                }
            }
            entries.extend(
                iids.into_iter()
                    .map(|iid| (net64 | u128::from(iid), rng.below(WEEKS) as u32)),
            );
        }
    }
    entries.sort_unstable_by_key(|e| e.0);
    let mut aliases: Vec<u128> = order[..aliased].to_vec();
    aliases.sort_unstable();
    let newer = (0..WEEKS)
        .map(|w| entries.iter().filter(|e| u64::from(e.1) > w).count() as u64)
        .collect();
    Corpus {
        entries,
        aliases,
        newer,
    }
}

impl Corpus {
    pub fn present(&self, bits: u128) -> Option<u32> {
        self.entries
            .binary_search_by_key(&bits, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    fn alias_of(&self, bits: u128) -> Option<Prefix> {
        let net = bits >> 80 << 80;
        self.aliases
            .binary_search(&net)
            .ok()
            .map(|_| Prefix::from_bits(net, 48))
    }

    fn lookup(&self, bits: u128) -> WireLookup {
        let week = self.present(bits);
        WireLookup {
            present: week.is_some(),
            first_week: week,
            alias: self.alias_of(bits),
            degraded: false,
        }
    }

    /// The model's answer to `req` at `epoch`: binary searches over the
    /// sorted entries, nothing shared with the code under test.
    pub fn answer(&self, req: &Request, epoch: u64) -> Response {
        match req {
            Request::Membership { addr } => Response::Bool {
                value: self.present(*addr).is_some(),
            },
            Request::MembershipUnaliased { addr } => Response::Bool {
                value: self.present(*addr).is_some() && self.alias_of(*addr).is_none(),
            },
            Request::Lookup { addr } => Response::Lookup {
                epoch,
                answer: self.lookup(*addr),
            },
            Request::Density { prefix } => {
                let lo = prefix.bits();
                let hi = u128::from(prefix.last());
                let start = self.entries.partition_point(|e| e.0 < lo);
                let end = self.entries.partition_point(|e| e.0 <= hi);
                Response::Count {
                    epoch,
                    value: (end - start) as u64,
                }
            }
            Request::NewSince { week } => Response::Count {
                epoch,
                value: self.newer.get(*week as usize).copied().unwrap_or(0),
            },
            Request::Batch { addrs } => {
                let answers: Vec<WireLookup> = addrs.iter().map(|&a| self.lookup(a)).collect();
                Response::Batch {
                    epoch,
                    missing_shards: Vec::new(),
                    present: answers.iter().filter(|a| a.present).count() as u64,
                    aliased: answers.iter().filter(|a| a.alias.is_some()).count() as u64,
                    answers,
                }
            }
            other => panic!("the generators never produce {other:?}"),
        }
    }
}
