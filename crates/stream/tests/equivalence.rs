//! The crate's governing invariant, pinned as properties:
//!
//! **At every epoch boundary, each streaming operator's checksum
//! equals that of the same operator rebuilt from the materialized
//! corpus** — under clean delivery, under duplicate/reordered
//! delivery, and after gap + resync. Streaming is an optimization,
//! never an approximation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use proptest::prelude::*;

use v6store::replica::{self, DeltaRecord};
use v6store::{EpochState, EpochView};
use v6stream::{
    fold_content, Analytics, AsResolver, AsTag, Event, Offer, PrefixAsTable, SharedResolver,
    StreamDriver,
};

/// A more-specific /48 inside AS 1's /32, announced by AS 4 in FR.
const INNER: u128 = (0x2a00_0001 << 96) | (0x0042 << 80);
/// The last address of [`INNER`].
const INNER_LAST: u128 = INNER | ((1 << 80) - 1);

/// Three routed /32s (two in DE, one in JP) with a more-specific /48
/// of another AS and country nested in the first, plus addresses outside
/// any route, so per-AS operators see attributed and unrouted traffic
/// and a sorted delta crosses AS boundaries both ways.
fn table() -> PrefixAsTable {
    PrefixAsTable::new(vec![
        (
            0x2a00_0001u128 << 96,
            32,
            AsTag {
                index: 1,
                country: u16::from_be_bytes(*b"DE"),
            },
        ),
        (
            0x2a00_0002u128 << 96,
            32,
            AsTag {
                index: 2,
                country: u16::from_be_bytes(*b"DE"),
            },
        ),
        (
            0x2a00_0003u128 << 96,
            32,
            AsTag {
                index: 3,
                country: u16::from_be_bytes(*b"JP"),
            },
        ),
        (
            INNER,
            48,
            AsTag {
                index: 4,
                country: u16::from_be_bytes(*b"FR"),
            },
        ),
    ])
}

fn resolver() -> SharedResolver {
    Arc::new(table())
}

/// One corpus mutation: upsert (add or week-change) or removal of a
/// pool address.
#[derive(Debug, Clone, Copy)]
enum Op {
    Upsert { slot: usize, week: u32 },
    Remove { slot: usize },
}

const MACS: [u64; 3] = [0x0012_3456_789a, 0x0012_3456_aaaa, 0xdead_beef_0001];

fn eui(mac: u64) -> u128 {
    u128::from(v6addr::Iid::from_mac(v6addr::Mac::from_u64(mac)).as_u64())
}

/// A small address pool mixing EUI-64 IIDs (a handful of MACs, so
/// devices genuinely span networks and ASes) with opaque IIDs, spread
/// over the routed prefixes, several subnets, and unrouted space —
/// and, around the nested /48, the addresses on both sides of both its
/// edges and the unrouted holes just before AS 1 and just after AS 3.
fn pool() -> Vec<u128> {
    let mut out = Vec::new();
    for prefix in [0x2a00_0001u128, 0x2a00_0002, 0x2a00_0003, 0x3fff_0001] {
        for subnet in 0..3u64 {
            let net = (prefix << 96) | (u128::from(subnet) << 64);
            out.extend(MACS.map(|mac| net | eui(mac)));
            for iid in [0x1u64, 0x9e37_79b9_7f4a_7c15] {
                out.push(net | u128::from(iid));
            }
        }
    }
    out.extend(MACS.map(|mac| INNER | 1 << 64 | eui(mac)));
    out.extend([INNER - 1, INNER, INNER_LAST, INNER_LAST + 1]);
    out.extend([(0x2a00_0001 << 96) - 1, 0x2a00_0004 << 96]);
    out
}

fn ops() -> impl Strategy<Value = Vec<Vec<Op>>> {
    // kind 0 removes, kinds 1-3 upsert: a 1:3 churn mix.
    let op = (0usize..4, 0usize..pool().len(), 0u32..8).prop_map(|(kind, slot, week)| {
        if kind == 0 {
            Op::Remove { slot }
        } else {
            Op::Upsert { slot, week }
        }
    });
    proptest::collection::vec(proptest::collection::vec(op, 0..12), 1..10)
}

/// Applies one epoch's ops to the corpus and returns the delta a
/// canonical producer (fold-checksumming serving layer) would emit.
fn advance(
    corpus: &mut BTreeMap<u128, u32>,
    state: &mut EpochState,
    epoch_ops: &[Op],
    epoch: u64,
) -> DeltaRecord {
    let pool = pool();
    for &op in epoch_ops {
        match op {
            Op::Upsert { slot, week } => {
                corpus.insert(pool[slot % pool.len()], week);
            }
            Op::Remove { slot } => {
                corpus.remove(&pool[slot % pool.len()]);
            }
        }
    }
    let entries: Vec<(u128, u32)> = corpus.iter().map(|(&b, &w)| (b, w)).collect();
    let checksum = entries
        .iter()
        .fold(0u64, |acc, &(bits, week)| fold_content(acc, bits, week));
    let delta = replica::delta_between(
        state,
        &EpochView {
            epoch,
            week: epoch,
            content_checksum: checksum,
            missing_shards: &[],
            entries: &entries,
            aliases: &[],
        },
    );
    replica::apply(state, &delta);
    delta
}

fn build_epochs(epochs: &[Vec<Op>]) -> (Vec<DeltaRecord>, Vec<Vec<(u128, u32)>>) {
    let mut corpus = BTreeMap::new();
    let mut state = EpochState::default();
    let mut deltas = Vec::new();
    let mut materialized = Vec::new();
    for (i, epoch_ops) in epochs.iter().enumerate() {
        deltas.push(advance(&mut corpus, &mut state, epoch_ops, i as u64 + 1));
        materialized.push(corpus.iter().map(|(&b, &w)| (b, w)).collect());
    }
    (deltas, materialized)
}

fn assert_equivalent(driver: &StreamDriver, entries: &[(u128, u32)]) {
    let batch = Analytics::from_entries(resolver(), entries);
    assert_eq!(
        driver.analytics().checksums(),
        batch.checksums(),
        "streaming state diverged from batch rebuild"
    );
}

proptest! {
    /// Clean delivery: equivalence at *every* epoch boundary, and the
    /// driver's maintained corpus checksum tracks the producer's.
    #[test]
    fn streaming_equals_batch_at_every_boundary(epochs in ops()) {
        let (deltas, materialized) = build_epochs(&epochs);
        let mut driver = StreamDriver::new(resolver());
        for (delta, entries) in deltas.iter().zip(&materialized) {
            prop_assert_eq!(driver.feed(delta), Offer::Applied(
                delta.removed.len() + delta.added.len()
            ));
            prop_assert_eq!(driver.content_checksum(), delta.content_checksum);
            assert_equivalent(&driver, entries);
        }
    }

    /// Re-delivering any prefix of history (duplicates, arbitrary
    /// stale reordering) never perturbs the state.
    #[test]
    fn duplicates_and_reordering_are_inert(epochs in ops(), dup in 0usize..1000) {
        let (deltas, materialized) = build_epochs(&epochs);
        let mut driver = StreamDriver::new(resolver());
        for (i, delta) in deltas.iter().enumerate() {
            driver.feed(delta);
            let stale = dup % (i + 1); // any already-applied delta
            prop_assert_eq!(driver.feed(&deltas[stale]), Offer::Duplicate);
            prop_assert_eq!(driver.content_checksum(), delta.content_checksum);
        }
        assert_equivalent(&driver, materialized.last().unwrap());
    }

    /// Dropping a delta either leaves a stream that provably
    /// converges back to the true corpus (every applied delta's
    /// checksum verified), or is *detected* as a gap — never a silent
    /// mis-application — and resync restores equivalence.
    #[test]
    fn gaps_are_detected_and_resync_recovers(epochs in ops(), drop in 0usize..1000) {
        let (deltas, materialized) = build_epochs(&epochs);
        if deltas.len() < 2 {
            continue;
        }
        let drop = drop % (deltas.len() - 1); // never the last one

        let mut driver = StreamDriver::new(resolver());
        for delta in &deltas[..drop] {
            driver.feed(delta);
        }
        let mut detected = false;
        for delta in &deltas[drop + 1..] {
            match driver.feed(delta) {
                Offer::Gap => { detected = true; break; }
                Offer::Applied(_) => {
                    // A delta only applies when its verified checksum
                    // matches — the stream re-converged despite the
                    // loss (e.g. the lost delta's sole change was
                    // overwritten by this one).
                    prop_assert_eq!(driver.content_checksum(), delta.content_checksum);
                }
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
        }

        let last = materialized.last().unwrap();
        if detected {
            prop_assert!(driver.is_lagging());
            // Recovery: authoritative rebuild, then equivalence again.
            driver.resync(deltas.len() as u64, deltas.len() as u64, last);
            prop_assert!(!driver.is_lagging());
        } else {
            // Convergence without detection is only legitimate when the
            // final state is *actually* the true corpus.
            prop_assert_eq!(
                driver.content_checksum(),
                deltas.last().unwrap().content_checksum
            );
        }
        assert_equivalent(&driver, last);
    }
}

/// [`table`], counting how often it is asked for a span.
struct Counting {
    table: PrefixAsTable,
    spans: AtomicUsize,
}

impl AsResolver for Counting {
    fn resolve(&self, bits: u128) -> Option<AsTag> {
        self.table.resolve(bits)
    }

    fn resolve_span(&self, bits: u128) -> (Option<AsTag>, u128) {
        self.spans.fetch_add(1, Relaxed);
        self.table.resolve_span(bits)
    }
}

/// A delta whose sorted entries step across both edges of the nested
/// /48 and through the unrouted holes folds, one resolve per span, to
/// exactly what folding the same events through `Analytics::apply`
/// (one resolve each) gives — and both equal the batch rebuild.
#[test]
fn apply_delta_by_span_equals_apply_per_event() {
    let pool = pool();
    // Before: every other pool address; after: the others, plus every
    // fourth address re-dated, so the delta removes, adds and re-dates
    // on both sides of every edge.
    let before: BTreeMap<u128, u32> = pool.iter().step_by(2).map(|&b| (b, 1)).collect();
    let mut after: BTreeMap<u128, u32> = pool.iter().skip(1).step_by(2).map(|&b| (b, 2)).collect();
    after.extend(pool.iter().step_by(4).map(|&b| (b, 3)));
    let upserts = |m: &BTreeMap<u128, u32>| -> Vec<Op> {
        let week = |bits| m.get(bits).copied();
        (pool.iter().enumerate())
            .filter_map(|(slot, bits)| {
                Some(Op::Upsert {
                    slot,
                    week: week(bits)?,
                })
            })
            .collect()
    };
    let (mut corpus, mut state) = (BTreeMap::new(), EpochState::default());
    advance(&mut corpus, &mut state, &upserts(&before), 1);
    let mut replace: Vec<Op> = (0..pool.len()).map(|slot| Op::Remove { slot }).collect();
    replace.extend(upserts(&after));
    let delta = advance(&mut corpus, &mut state, &replace, 2);
    assert_eq!(corpus, after);
    for edge in [INNER - 1, INNER, INNER_LAST, INNER_LAST + 1] {
        let touched = delta.removed.contains(&edge) || delta.added.iter().any(|e| e.0 == edge);
        assert!(touched, "the delta crosses {edge:#x}");
    }

    let entries = |m: &BTreeMap<u128, u32>| m.iter().map(|(&b, &w)| (b, w)).collect::<Vec<_>>();
    let counting = Arc::new(Counting {
        table: table(),
        spans: AtomicUsize::new(0),
    });
    let mut by_span = Analytics::from_entries(counting.clone(), &entries(&before));
    let mut per_event = Analytics::from_entries(resolver(), &entries(&before));
    let events = by_span.apply_delta(&delta, |bits| before.get(&bits).copied());
    for &bits in &delta.removed {
        let week = before[&bits];
        per_event.apply(&Event::Removed { bits, week });
    }
    for &(bits, week) in &delta.added {
        per_event.apply(&match before.get(&bits) {
            Some(&old_week) => Event::WeekChanged {
                bits,
                old_week,
                new_week: week,
            },
            None => Event::Added { bits, week },
        });
    }
    assert_eq!(by_span.checksums(), per_event.checksums());
    assert_eq!(by_span.entropy.snapshot(), per_event.entropy.snapshot());
    let batch = Analytics::from_entries(resolver(), &entries(&after));
    assert_eq!(by_span.checksums(), batch.checksums());
    let asked = counting.spans.load(Relaxed);
    assert!(
        0 < asked && asked < events,
        "{asked} resolves for {events} events"
    );
}
