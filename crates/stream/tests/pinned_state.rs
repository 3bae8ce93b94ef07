//! Operator state pinned across representations.
//!
//! A seeded add / remove / week-change sequence over devices that span
//! several /64s, ASes and countries, unrouted space, and MACs that
//! leave and come back. At fixed points the two operator checksums
//! must equal literals recorded from the nested-`BTreeMap` operators
//! this crate first shipped with, and the movement windows — whole and
//! cut at a row cap — must equal a nested-`BTreeMap` reference model
//! kept here, so any later change of operator layout has to keep every
//! digest byte and every row.

use std::collections::BTreeMap;
use std::sync::Arc;

use v6stream::{Analytics, AsTag, Event, Move, PrefixAsTable, SharedResolver};

const ROUTED: [(u128, u16, [u8; 2]); 6] = [
    (0x2a00_0001, 1, *b"DE"),
    (0x2a00_0002, 2, *b"DE"),
    (0x2a00_0003, 3, *b"JP"),
    (0x2a00_0004, 4, *b"US"),
    (0x2a00_0005, 5, *b"US"),
    (0x2a00_0006, 6, *b"DE"),
];
const UNROUTED: u128 = 0x3fff_0001;

fn table() -> PrefixAsTable {
    PrefixAsTable::new(
        ROUTED
            .iter()
            .map(|&(p, index, cc)| {
                let country = u16::from_be_bytes(cc);
                (p << 96, 32, AsTag { index, country })
            })
            .collect(),
    )
}

/// splitmix64: the sequence below must never change, so it is spelled
/// out here rather than borrowed from a crate that might retune it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 48 MACs, each EUI-64 address paired with an opaque-IID one in the
/// same /64. By MAC number: 0–7 roam every prefix (several countries);
/// 8–15 stay inside the three DE ASes; 16–23 have eight /64s in one AS
/// (rotation); 24–31 four /64s in one AS; 32–39 one routed and the
/// unrouted prefix; 40–47 are a single address that appears and
/// vanishes.
fn pool() -> Vec<u128> {
    let mut rng = Rng(0x005e_ed0f_9001);
    let mut out = Vec::new();
    let all: Vec<u128> = ROUTED
        .iter()
        .map(|r| r.0)
        .chain(std::iter::once(UNROUTED))
        .collect();
    for m in 0..48u64 {
        let mac = 0x0012_3400_0000 | (m * 0x0101);
        let iid = v6addr::Iid::from_mac(v6addr::Mac::from_u64(mac)).as_u64();
        let home = ROUTED[(m % 6) as usize].0;
        let (prefixes, subnets): (Vec<u128>, u64) = match m / 8 {
            0 => (all.clone(), 2),
            1 => (vec![ROUTED[0].0, ROUTED[1].0, ROUTED[5].0], 3),
            2 => (vec![home], 8),
            3 => (vec![home], 4),
            4 => (vec![home, UNROUTED], 2),
            _ => (vec![home], 1),
        };
        for prefix in prefixes {
            for subnet in 0..subnets {
                out.push((prefix << 96) | (u128::from(subnet) << 64) | u128::from(iid));
                out.push((prefix << 96) | (u128::from(subnet) << 64) | u128::from(rng.next()));
            }
        }
    }
    out.push((ROUTED[0].0 << 96) | 1); // ::1, zero-entropy
    out
}

/// Per device, per /64: `first-seen week → live address count`.
type RefNets = BTreeMap<u64, BTreeMap<u32, u32>>;

/// The nested-map device table, updated the obvious way.
#[derive(Default)]
struct Reference {
    devices: BTreeMap<u64, RefNets>,
}

fn decrement<K: Ord>(map: &mut BTreeMap<K, u32>, key: K) {
    let count = map
        .get_mut(&key)
        .expect("reference only removes what it holds");
    *count -= 1;
    if *count == 0 {
        map.remove(&key);
    }
}

impl Reference {
    fn apply(&mut self, event: &Event) {
        let (bits, gone, came) = match *event {
            Event::Added { bits, week } => (bits, None, Some(week)),
            Event::Removed { bits, week } => (bits, Some(week), None),
            Event::WeekChanged {
                bits,
                old_week,
                new_week,
            } => (bits, Some(old_week), Some(new_week)),
        };
        let Some(mac) = v6addr::Iid::new(bits as u64).to_mac() else {
            return;
        };
        let mac = mac.as_u64();
        let net = (bits >> 64) as u64;
        let nets = self.devices.entry(mac).or_default();
        if let Some(week) = gone {
            let weeks = nets.get_mut(&net).expect("held");
            decrement(weeks, week);
            if weeks.is_empty() {
                nets.remove(&net);
            }
        }
        if let Some(week) = came {
            *nets.entry(net).or_default().entry(week).or_insert(0) += 1;
        }
        if nets.is_empty() {
            self.devices.remove(&mac);
        }
    }

    fn first_weeks(nets: &RefNets) -> Vec<(u64, u32)> {
        nets.iter()
            .map(|(&net, weeks)| (net, *weeks.keys().next().expect("pruned")))
            .collect()
    }

    fn moved_between(&self, w0: u32, w1: u32) -> Vec<Move> {
        let mut out = Vec::new();
        for (&mac, nets) in &self.devices {
            let firsts = Self::first_weeks(nets);
            let Some(&(from_net, _)) = firsts
                .iter()
                .filter(|&&(_, w)| w <= w0)
                .min_by_key(|&&(net, w)| (w, net))
            else {
                continue;
            };
            out.extend(
                firsts
                    .iter()
                    .filter(|&&(net, week)| net != from_net && week > w0 && week <= w1)
                    .map(|&(to_net, week)| Move {
                        mac,
                        from_net,
                        to_net,
                        week,
                    }),
            );
        }
        out
    }
}

struct Harness {
    pool: Vec<u128>,
    rng: Rng,
    corpus: BTreeMap<u128, u32>,
    analytics: Analytics,
    reference: Reference,
}

impl Harness {
    fn new() -> Harness {
        let resolver: SharedResolver = Arc::new(table());
        Harness {
            pool: pool(),
            rng: Rng(15),
            corpus: BTreeMap::new(),
            analytics: Analytics::new(resolver),
            reference: Reference::default(),
        }
    }

    fn apply(&mut self, event: Event) {
        self.analytics.apply(&event);
        self.reference.apply(&event);
    }

    /// One step: `remove_in_8` of 8 steps try a removal, the rest
    /// upsert (an add, or a week change when the address is held).
    fn step(&mut self, remove_in_8: u64) {
        let bits = self.pool[self.rng.below(self.pool.len() as u64) as usize];
        let week = self.rng.below(12) as u32;
        let remove = self.rng.below(8) < remove_in_8;
        match (self.corpus.get(&bits).copied(), remove) {
            (Some(week), true) => {
                self.corpus.remove(&bits);
                self.apply(Event::Removed { bits, week });
            }
            (None, true) => {}
            (Some(old_week), false) if old_week == week => {}
            (Some(old_week), false) => {
                self.corpus.insert(bits, week);
                self.apply(Event::WeekChanged {
                    bits,
                    old_week,
                    new_week: week,
                });
            }
            (None, false) => {
                self.corpus.insert(bits, week);
                self.apply(Event::Added { bits, week });
            }
        }
    }

    fn drain(&mut self) {
        let held: Vec<(u128, u32)> = self.corpus.iter().map(|(&b, &w)| (b, w)).collect();
        self.corpus.clear();
        // Odd positions first, then even: not the insertion order, not
        // the key order.
        for parity in [1, 0] {
            for &(bits, week) in held.iter().skip(parity).step_by(2) {
                self.apply(Event::Removed { bits, week });
            }
        }
    }

    fn check(&self, label: &str, pinned: [u64; 2]) {
        let got = self.analytics.checksums();
        let names = ["entropy", "device"];
        for ((name, sum), (want_name, want)) in got.iter().zip(names.iter().zip(pinned)) {
            assert_eq!(name, want_name);
            assert_eq!(
                *sum, want,
                "{label}: {name} checksum {sum:#018x}, pinned {want:#018x}"
            );
        }
        for (w0, w1) in [(0, 11), (2, 4), (5, 9), (7, 8), (11, 20)] {
            let want = self.reference.moved_between(w0, w1);
            // A cap cuts the answer to the model's prefix: uncapped,
            // exactly the row count, half of it, one row, none.
            for cap in [usize::MAX, want.len(), want.len() / 2, 1, 0] {
                let moves: Vec<Move> = self
                    .analytics
                    .devices
                    .moved_between(w0, w1)
                    .take(cap)
                    .collect();
                assert_eq!(
                    moves,
                    want[..cap.min(want.len())],
                    "{label}: moved_between({w0}, {w1}) capped at {cap}"
                );
            }
        }
        // Batch anchor: the same corpus folded fresh.
        let entries: Vec<(u128, u32)> = self.corpus.iter().map(|(&b, &w)| (b, w)).collect();
        let batch = Analytics::from_entries(Arc::new(table()), &entries);
        assert_eq!(batch.checksums(), got, "{label}: batch rebuild");
    }
}

#[test]
fn operator_state_is_pinned() {
    let mut h = Harness::new();
    h.check("fresh", EMPTY);

    // Grow, churn, thin out, grow back (drained MACs return), drain.
    let phases = [(6_000, 1), (6_000, 4), (4_000, 7), (6_000, 2)];
    let mut pinned = PINNED.iter();
    for (phase, &(steps, remove_in_8)) in phases.iter().enumerate() {
        for half in ["midway", "end"] {
            for _ in 0..steps / 2 {
                h.step(remove_in_8);
            }
            h.check(&format!("phase {phase} {half}"), *pinned.next().unwrap());
            assert!(!h.reference.moved_between(2, 4).is_empty());
        }
    }
    assert!(pinned.next().is_none());

    h.drain();
    h.check("drained", EMPTY);
    assert!(h.reference.devices.is_empty());
}

/// Every operator's digest of no state at all.
const EMPTY: [u64; 2] = [0xa8c7_f832_281a_39c5; 2];

/// `[entropy, device]` at each check, recorded from the nested-map
/// operators (commit 2aebfc4).
const PINNED: [[u64; 2]; 8] = [
    [0x362b_9618_569c_01c5, 0x2734_1cb4_b1f8_fe25],
    [0x9a57_8484_5e17_3ec3, 0x947d_63eb_ddbb_aa0c],
    [0xe70e_f43c_c402_cde5, 0x2eb4_d298_5fc5_409a],
    [0x4aa6_0f0d_0d39_e580, 0x9d9d_d2e9_68b0_2263],
    [0xefe3_5866_57fe_1e67, 0xdf92_9ee6_97ef_3479],
    [0xa7e5_e089_c670_1f42, 0x1d3b_e1da_3841_6088],
    [0x467d_ef35_5780_754e, 0xc4da_a96d_a5b9_e7a9],
    [0x9090_a912_5971_50a8, 0x7e2c_c513_0152_12fe],
];
