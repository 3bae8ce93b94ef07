//! The stream driver: verified, idempotent delta ingestion feeding a
//! set of incremental operators.
//!
//! # Replay safety
//!
//! Delta streams in this system are *mostly* reliable — the epoch log
//! is checksummed per frame, replication verifies the checksum chain —
//! but a tailer can race a compaction (epochs vanish from the log) and
//! a lossy transport can drop or re-deliver a push. A streaming
//! analytics layer that silently mis-applies any of those diverges from
//! the corpus *forever*, which is strictly worse than batch re-analysis
//! being slow. The driver therefore refuses to guess:
//!
//! * **Duplicates / reordering** — every delta targets exactly one
//!   epoch; `delta.epoch <= current` is dropped as a duplicate (the
//!   state already includes it or something newer).
//! * **Gaps** — before mutating anything, the driver computes what the
//!   corpus content checksum *would be* after the delta, using its
//!   mirror and the commutative [`fold_content`] sum. A mismatch with
//!   the producer-recorded [`DeltaRecord::content_checksum`] (or a
//!   removal of an entry the mirror does not hold) proves a delta went
//!   missing in between. The delta is rejected **without touching any
//!   state**, and the driver reports [`Offer::Gap`] / goes *lagging*
//!   until [`StreamDriver::resync`] rebuilds it from an authoritative
//!   materialized epoch.
//!
//! Because verification is read-only, a detected fault never corrupts
//! operator state: either a delta applies exactly, or nothing happens.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use v6obs::{Counter, Histogram};
use v6store::DeltaRecord;

use crate::kernel::{content_term, eui64_mac, fold_content};
use crate::op::{Attrs, Event};
use crate::{DeviceTracker, EntropyProfile, SharedResolver};

/// The operator set, fed as one unit: the two operators the served
/// `MovedBetween` and `EntropyShift` requests read.
///
/// Owns one instance of each and the one resolver:
/// [`Analytics::apply`] is where an event's address is attributed, once
/// for all of them. Kept separate from [`StreamDriver`] so batch
/// equivalence checks can build a fresh `Analytics` from materialized
/// entries and compare checksums — the invariant the whole crate hangs
/// on.
///
/// The contract each operator upholds, and the equivalence proptests
/// pin: after any event sequence, its state — and therefore its
/// `checksum` — equals that of a fresh operator fed only `Added` events
/// for the surviving corpus. That requires canonical state (prune empty
/// sub-maps and zero counts) and kernels that depend on `(bits, week)`
/// alone — the [`Attrs`] are a function of `bits` under a resolver that
/// is stable for the stream's lifetime.
pub struct Analytics {
    resolver: SharedResolver,
    /// Per-AS IID entropy histograms.
    pub entropy: EntropyProfile,
    /// EUI-64 device tracking and movement windows.
    pub devices: DeviceTracker,
}

impl Analytics {
    /// Fresh, empty operators attributing addresses through `resolver`.
    pub fn new(resolver: SharedResolver) -> Analytics {
        Analytics {
            resolver,
            entropy: EntropyProfile::new(),
            devices: DeviceTracker::new(),
        }
    }

    /// Builds operators from a materialized corpus — the batch path.
    ///
    /// This is definitionally the reference result: a streaming driver
    /// that ingested every delta must hold operators with exactly
    /// these checksums.
    pub fn from_entries(resolver: SharedResolver, entries: &[(u128, u32)]) -> Analytics {
        let mut a = Analytics::new(resolver);
        for &(bits, week) in entries {
            a.apply(&Event::Added { bits, week });
        }
        a
    }

    /// Folds one event into every operator, resolving its address's AS
    /// and EUI-64 MAC once.
    pub fn apply(&mut self, event: &Event) {
        let attrs = Attrs::resolve(&*self.resolver, event.bits());
        self.fold(event, &attrs);
    }

    fn fold(&mut self, event: &Event, attrs: &Attrs) {
        self.entropy.apply(event, attrs);
        self.devices.apply(event, attrs);
    }

    /// Folds one delta into every operator — the one place a
    /// [`DeltaRecord`] is resolved into events. `prior` answers "what
    /// week did this address have before the delta?" from whatever
    /// holds the pre-delta corpus (a serving snapshot, the driver's
    /// map): a removal of a held address is a [`Event::Removed`] under
    /// its old week, an added entry is a [`Event::WeekChanged`] when
    /// the address was held and an [`Event::Added`] when it was not.
    ///
    /// The caller has verified that `delta` extends the corpus `prior`
    /// reads (checksum chain), so no address is both removed and added.
    /// `prior` is asked exactly once per entry, removals first, in
    /// record order — a caller that has already looked every entry up
    /// can replay its answers. Returns the number of events folded.
    ///
    /// Both lists are sorted, so neighbouring events mostly share an AS:
    /// the resolver is asked once per run of addresses that resolve
    /// alike ([`crate::AsResolver::resolve_span`]), which folds exactly what
    /// [`Analytics::apply`] per event would.
    pub fn apply_delta(
        &mut self,
        delta: &DeltaRecord,
        mut prior: impl FnMut(u128) -> Option<u32>,
    ) -> usize {
        // Every address of `[from, until]` resolves to `tag`; starts empty.
        let (mut from, mut until, mut tag) = (1, 0, None);
        let resolver = Arc::clone(&self.resolver);
        let mut attrs = |bits: u128| {
            if !(from..=until).contains(&bits) {
                (tag, until) = resolver.resolve_span(bits);
                from = bits;
            }
            Attrs {
                tag,
                mac: eui64_mac(bits),
            }
        };
        let mut events = 0;
        for &bits in &delta.removed {
            if let Some(week) = prior(bits) {
                self.fold(&Event::Removed { bits, week }, &attrs(bits));
                events += 1;
            }
        }
        for &(bits, week) in &delta.added {
            let event = match prior(bits) {
                Some(old_week) => Event::WeekChanged {
                    bits,
                    old_week,
                    new_week: week,
                },
                None => Event::Added { bits, week },
            };
            self.fold(&event, &attrs(bits));
        }
        events + delta.added.len()
    }

    /// `(operator name, checksum)` for all operators, in fixed order.
    pub fn checksums(&self) -> [(&'static str, u64); 2] {
        [
            (self.entropy.name(), self.entropy.checksum()),
            (self.devices.name(), self.devices.checksum()),
        ]
    }

    /// Clears every operator and folds `entries` back in as additions:
    /// the O(corpus) rebuild from an authoritative materialized epoch.
    /// Operator state does not depend on the order they arrive in.
    pub fn rebuild(&mut self, entries: impl IntoIterator<Item = (u128, u32)>) {
        self.reset();
        for (bits, week) in entries {
            self.apply(&Event::Added { bits, week });
        }
    }

    /// Clears every operator.
    pub fn reset(&mut self) {
        self.entropy.reset();
        self.devices.reset();
    }
}

/// What [`StreamDriver::feed`] did with one delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Verified and applied; this many resolved events were folded.
    Applied(usize),
    /// `delta.epoch` is not newer than the current epoch — already
    /// incorporated (re-delivery or reordering). Dropped, harmless.
    Duplicate,
    /// Checksum-chain mismatch: at least one intervening delta is
    /// missing. Nothing was mutated; the driver is now lagging.
    Gap,
    /// Dropped because the driver is lagging from an earlier gap and
    /// awaits [`StreamDriver::resync`].
    Lagging,
}

struct DriverMetrics {
    applied: Counter,
    events: Counter,
    duplicates: Counter,
    gaps: Counter,
    dropped: Counter,
    resyncs: Counter,
    apply_latency: Histogram,
}

impl DriverMetrics {
    fn global() -> DriverMetrics {
        DriverMetrics {
            applied: v6obs::counter("stream.op.applied"),
            events: v6obs::counter("stream.op.events"),
            duplicates: v6obs::counter("stream.op.duplicates"),
            gaps: v6obs::counter("stream.op.gaps"),
            dropped: v6obs::counter("stream.op.dropped"),
            resyncs: v6obs::counter("stream.op.resyncs"),
            apply_latency: v6obs::histogram("stream.op.apply_latency"),
        }
    }
}

/// Tails a delta stream into an [`Analytics`] set, maintaining a
/// corpus mirror for verification and event resolution — for consumers
/// that hold no snapshot of the corpus themselves (a log tail); one
/// that does (a serving store, a cluster replica) calls
/// [`Analytics::apply_delta`] directly from its publish.
///
/// Work per delta is O(|delta| · log corpus) — independent of corpus
/// *size* except through map-depth, which is what makes per-epoch
/// analytics flat where batch re-analysis grows linearly.
pub struct StreamDriver {
    /// bits → first-seen week; the verified corpus mirror.
    mirror: HashMap<u128, u32>,
    epoch: u64,
    /// Running [`fold_content`] sum over the mirror.
    checksum: u64,
    lagging: bool,
    /// The week each entry of the delta being offered held before it,
    /// in record order: what the verification pass found in the mirror.
    priors: Vec<Option<u32>>,
    analytics: Analytics,
    metrics: DriverMetrics,
}

impl StreamDriver {
    /// An empty driver at epoch 0.
    pub fn new(resolver: SharedResolver) -> StreamDriver {
        StreamDriver {
            mirror: HashMap::new(),
            epoch: 0,
            checksum: 0,
            lagging: false,
            priors: Vec::new(),
            analytics: Analytics::new(resolver),
            metrics: DriverMetrics::global(),
        }
    }

    /// The epoch the operators reflect.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained corpus content checksum (the commutative
    /// [`fold_content`] sum over all mirrored entries).
    pub fn content_checksum(&self) -> u64 {
        self.checksum
    }

    /// True when a gap was detected and a [`StreamDriver::resync`] is
    /// required before further deltas apply.
    pub fn is_lagging(&self) -> bool {
        self.lagging
    }

    /// The operator set.
    pub fn analytics(&self) -> &Analytics {
        &self.analytics
    }

    /// Verifies and applies one delta.
    pub fn feed(&mut self, delta: &DeltaRecord) -> Offer {
        let started = Instant::now();
        if self.lagging {
            self.metrics.dropped.inc();
            return Offer::Lagging;
        }
        if delta.epoch <= self.epoch {
            self.metrics.duplicates.inc();
            return Offer::Duplicate;
        }

        // Read-only verification: compute the post-delta checksum from
        // the mirror. Any inconsistency proves a missing delta. This is
        // the one lookup of each entry; what it finds is kept for the
        // operators.
        let mut next = self.checksum;
        let mut consistent = true;
        self.priors.clear();
        for &bits in &delta.removed {
            let Some(&week) = self.mirror.get(&bits) else {
                consistent = false;
                break;
            };
            next = next.wrapping_sub(content_term(bits, week));
            self.priors.push(Some(week));
        }
        if consistent {
            for &(bits, week) in &delta.added {
                let old = self.mirror.get(&bits).copied();
                if let Some(old) = old {
                    next = next.wrapping_sub(content_term(bits, old));
                }
                next = fold_content(next, bits, week);
                self.priors.push(old);
            }
        }
        if !consistent || next != delta.content_checksum {
            self.metrics.gaps.inc();
            self.lagging = true;
            return Offer::Gap;
        }

        // Verified: fold the delta against the weeks just read, then
        // carry the mirror forward.
        let mut priors = self.priors.iter();
        let count = self.analytics.apply_delta(delta, |_| {
            *priors.next().expect("one prior week per delta entry")
        });
        for bits in &delta.removed {
            self.mirror.remove(bits);
        }
        self.mirror.extend(delta.added.iter().copied());
        self.checksum = next;
        self.epoch = delta.epoch;
        self.metrics.applied.inc();
        self.metrics.events.add(count as u64);
        self.metrics
            .apply_latency
            .record_duration(started.elapsed());
        Offer::Applied(count)
    }

    /// Rebuilds mirror, checksum, and all operators from an
    /// authoritative materialized epoch — the gap recovery path.
    ///
    /// O(corpus), by design: resync is the explicitly-paid fallback
    /// that bounds how wrong the cheap path can ever be. The epoch's
    /// study week is accepted beside its entries but is not part of any
    /// operator's state.
    pub fn resync(&mut self, epoch: u64, _week: u64, entries: &[(u128, u32)]) {
        self.analytics.rebuild(entries.iter().copied());
        self.mirror.clear();
        self.mirror.extend(entries.iter().copied());
        self.checksum = entries
            .iter()
            .fold(0, |acc, &(bits, week)| fold_content(acc, bits, week));
        self.epoch = epoch;
        self.lagging = false;
        self.metrics.resyncs.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::PrefixAsTable;
    use v6store::{replica, EpochState, EpochView};

    fn resolver() -> SharedResolver {
        Arc::new(PrefixAsTable::new(Vec::new()))
    }

    /// Builds the delta carrying `prev` to `entries`, with the
    /// canonical fold checksum a serving producer would record.
    fn delta_to(prev: &EpochState, epoch: u64, entries: &[(u128, u32)]) -> DeltaRecord {
        let checksum = entries
            .iter()
            .fold(0u64, |acc, &(bits, week)| fold_content(acc, bits, week));
        replica::delta_between(
            prev,
            &EpochView {
                epoch,
                week: epoch,
                content_checksum: checksum,
                missing_shards: &[],
                entries,
                aliases: &[],
            },
        )
    }

    fn advance(state: &mut EpochState, epoch: u64, entries: Vec<(u128, u32)>) -> DeltaRecord {
        let delta = delta_to(state, epoch, &entries);
        replica::apply(state, &delta);
        delta
    }

    #[test]
    fn applies_duplicates_and_gaps() {
        let mut state = EpochState::default();
        let mut driver = StreamDriver::new(resolver());

        let d1 = advance(&mut state, 1, vec![(10, 1), (20, 1)]);
        let d2 = advance(&mut state, 2, vec![(10, 1), (30, 2)]);
        let d3 = advance(&mut state, 3, vec![(10, 2), (30, 2), (40, 3)]);

        assert_eq!(driver.feed(&d1), Offer::Applied(2));
        assert_eq!(driver.feed(&d1), Offer::Duplicate, "re-delivery is inert");
        assert_eq!(driver.feed(&d2), Offer::Applied(2), "remove 20, add 30");
        assert_eq!(driver.content_checksum(), d2.content_checksum);

        // Skip d3's predecessor? No — drop d3 and offer a later delta:
        let d4 = advance(&mut state, 4, vec![(10, 2), (40, 3)]);
        assert_eq!(driver.feed(&d4), Offer::Gap, "missing d3 breaks the chain");
        assert!(driver.is_lagging());
        assert_eq!(driver.feed(&d3), Offer::Lagging, "lagging drops everything");
        assert_eq!(
            driver.content_checksum(),
            d2.content_checksum,
            "gap rejection mutated nothing"
        );

        driver.resync(state.epoch, state.week, &state.entries);
        assert!(!driver.is_lagging());
        assert_eq!(driver.epoch(), 4);
        assert_eq!(driver.content_checksum(), d4.content_checksum);

        // Equivalence after the whole ordeal.
        let batch = Analytics::from_entries(resolver(), &state.entries);
        assert_eq!(driver.analytics().checksums(), batch.checksums());
    }

    #[test]
    fn week_change_resolves_as_upsert() {
        let mut state = EpochState::default();
        let mut driver = StreamDriver::new(resolver());
        let d1 = advance(&mut state, 1, vec![(10, 5)]);
        let d2 = advance(&mut state, 2, vec![(10, 2)]);
        assert_eq!(driver.feed(&d1), Offer::Applied(1));
        assert_eq!(driver.feed(&d2), Offer::Applied(1));
        let batch = Analytics::from_entries(resolver(), &state.entries);
        assert_eq!(driver.analytics().checksums(), batch.checksums());
    }

    #[test]
    fn removal_of_unknown_entry_is_a_gap() {
        let mut state = EpochState::default();
        let mut driver = StreamDriver::new(resolver());
        let d1 = advance(&mut state, 1, vec![(10, 1), (20, 1)]);
        driver.feed(&d1);
        let bogus = DeltaRecord {
            epoch: 2,
            week: 2,
            content_checksum: 0,
            missing_shards: vec![],
            removed: vec![99],
            added: vec![],
            removed_aliases: vec![],
            added_aliases: vec![],
        };
        assert_eq!(driver.feed(&bogus), Offer::Gap);
    }
}
