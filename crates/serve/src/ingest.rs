//! Ingestion: publications in, snapshot epochs out, on the caller's
//! thread.
//!
//! [`Ingestor::submit`] normalizes one [`PublicationUpdate`] into
//! per-shard sorted `(bits, week)` runs (a big update spreads the sorts
//! over `v6par` helpers), merges them and publishes the next epoch
//! before it returns, so the `k`-th epoch an ingestor publishes holds
//! exactly its updates `0..=k`. The ingestor holds the last snapshot it
//! built — starting from whatever the store serves when it is created —
//! and no other copy of the corpus: it keeps, of each run, only the
//! entries that change that snapshot (an address not yet held, or held
//! under a later week) and carries it forward through them (the
//! per-shard step of [`Snapshot::apply_delta`]: one linear merge per
//! touched shard, every other shard shared by pointer). Readers are
//! never involved: they keep serving the last published epoch.
//!
//! # Fault tolerance
//!
//! [`Ingestor::with_chaos`] consults a [`v6chaos::Chaos`] at each fault
//! site; [`Ingestor::new`] injects nothing.
//!
//! * `serve.worker.update.<seq>` — normalizing the `seq`-th submitted
//!   update. A `Stall` delays it; errors are retried up to the chaos
//!   retry budget; exhaustion or an injected crash records the update
//!   as *lost* in the [`IngestReport`], and ingestion goes on.
//! * `serve.shard.<i>` — merging shard `i`'s parked runs. A failing
//!   consult *quarantines* the shard: its runs stay parked, the epoch is
//!   published anyway with the shard's last good content (the previous
//!   epoch's shard, by pointer) and a `Degraded { missing_shards }`
//!   status. Later consults (or the final flush in
//!   [`Ingestor::finish_report`]) drain the quarantine; only a permanent
//!   script leaves the shard quarantined, and the report names it.
//!
//! A publish the store refuses is returned from [`Ingestor::submit`];
//! the next publish carries everything built so far, and the report is
//! complete only if the store serves the last snapshot built.

use std::sync::Arc;
use std::time::Instant;

use v6addr::{shard48, Prefix};
use v6chaos::{Chaos, Fault, LossReport, NoChaos};
use v6hitlist::{HitlistService, NtpCorpus};
use v6scan::CampaignResult;

use crate::snapshot::{earliest_aliases, Shard, ShardChange, Snapshot};
use crate::store::{HitlistStore, PublishError};

const WEEK_SECS: u64 = 7 * 86_400;

/// One unit of publication input.
#[derive(Debug, Clone)]
pub enum PublicationUpdate {
    /// A full service publication stream (all weekly snapshots at once).
    Service(HitlistService),
    /// One incremental weekly release.
    Week {
        /// Study week of the release.
        week: u64,
        /// Addresses published this week.
        addresses: Vec<std::net::Ipv6Addr>,
    },
    /// Passive observations as `(address bits, seconds since study start)`.
    Passive {
        /// The raw observations.
        observations: Vec<(u128, u32)>,
    },
    /// Aliased-prefix registrations, effective from `week`.
    Aliases {
        /// Week the aliases were detected.
        week: u64,
        /// The aliased prefixes.
        prefixes: Vec<Prefix>,
    },
}

impl PublicationUpdate {
    /// Wraps an active campaign's results as a service publication.
    pub fn from_campaign(name: impl Into<String>, campaign: &CampaignResult) -> Self {
        PublicationUpdate::Service(HitlistService::from_campaign(name, campaign))
    }

    /// Wraps a passive NTP corpus.
    pub fn from_corpus(corpus: &NtpCorpus) -> Self {
        PublicationUpdate::Passive {
            observations: corpus.observations.iter().map(|o| (o.addr, o.t)).collect(),
        }
    }

    /// Addresses carried (before dedup), for the ingest stats.
    pub fn address_count(&self) -> u64 {
        match self {
            PublicationUpdate::Service(s) => s
                .snapshots
                .iter()
                .map(|w| w.new_responsive.len() as u64)
                .sum(),
            PublicationUpdate::Week { addresses, .. } => addresses.len() as u64,
            PublicationUpdate::Passive { observations } => observations.len() as u64,
            PublicationUpdate::Aliases { .. } => 0,
        }
    }
}

/// A normalized update: per-shard sorted `(bits, week)` runs + aliases.
struct ShardBatch {
    per_shard: Vec<Vec<(u128, u32)>>,
    aliases: Vec<(Prefix, u32)>,
    raw_addresses: u64,
}

fn normalize(update: PublicationUpdate, shard_bits: u32) -> ShardBatch {
    let shard_count = 1usize << shard_bits;
    let mut per_shard: Vec<Vec<(u128, u32)>> = vec![Vec::new(); shard_count];
    let mut aliases: Vec<(Prefix, u32)> = Vec::new();
    let raw_addresses = update.address_count();
    let push = |bits: u128, week: u32, shards: &mut Vec<Vec<(u128, u32)>>| {
        shards[shard48(bits, shard_bits)].push((bits, week));
    };
    match update {
        PublicationUpdate::Service(service) => {
            for snap in &service.snapshots {
                for &a in &snap.new_responsive {
                    push(u128::from(a), snap.week as u32, &mut per_shard);
                }
            }
            let first_week = service
                .snapshots
                .first()
                .map(|s| s.week as u32)
                .unwrap_or(0);
            aliases.extend(service.aliased.iter().map(|&p| (p, first_week)));
        }
        PublicationUpdate::Week { week, addresses } => {
            for &a in &addresses {
                push(u128::from(a), week as u32, &mut per_shard);
            }
        }
        PublicationUpdate::Passive { observations } => {
            for &(bits, t) in &observations {
                push(bits, (u64::from(t) / WEEK_SECS) as u32, &mut per_shard);
            }
        }
        PublicationUpdate::Aliases { week, prefixes } => {
            aliases.extend(prefixes.iter().map(|&p| (p, week as u32)));
        }
    }
    // Sort each run by (bits, week) then dedup keeping the first entry
    // of each equal-bits run — i.e. the earliest week within this
    // update. Runs are independent, so big updates fan the per-shard
    // sorts out across v6par helpers; the adaptive cutoff keeps the
    // typical small update inline on the submitting thread.
    let total: usize = per_shard.iter().map(Vec::len).sum();
    let run_cost = v6par::Cost::per_item_ns(100 * (total / per_shard.len().max(1)).max(1) as u64)
        .labeled("serve.normalize");
    v6par::par_for_each_mut(v6par::threads(), &mut per_shard, run_cost, |_, run| {
        keep_earliest(run);
    });
    earliest_aliases(&mut aliases);
    ShardBatch {
        per_shard,
        aliases,
        raw_addresses,
    }
}

/// Sorts a run by bits and keeps one entry per address, the one with
/// the earliest week.
fn keep_earliest(run: &mut Vec<(u128, u32)>) {
    v6par::radix_sort_by_key(run, |&(b, w)| (b, u64::from(w)));
    run.dedup_by_key(|&mut (b, _)| b);
}

/// The entries of `run` (one per address) that change `shard`: an
/// address it does not hold, or one it holds under a later week — the
/// earliest week wins.
fn winning_upserts(shard: &Shard, mut run: Vec<(u128, u32)>) -> Vec<(u128, u32)> {
    run.retain(|&(bits, week)| shard.first_week_of(bits).is_none_or(|held| week < held));
    run
}

/// One shard's quarantine state: the runs parked while its
/// `serve.shard.<i>` site fails.
#[derive(Clone, Default)]
struct Parked {
    runs: Vec<Vec<(u128, u32)>>,
    attempts: u32,
    poisoned: bool,
}

impl Parked {
    /// Consults shard `i`'s fault site once. When it lets the merge
    /// through, hands over what of the parked runs changes `shard`
    /// ([`winning_upserts`]), sorted by bits; otherwise they stay parked.
    fn release(&mut self, i: usize, chaos: &dyn Chaos, shard: &Shard) -> Option<Vec<(u128, u32)>> {
        if self.runs.is_empty() || self.poisoned {
            return None;
        }
        let site = format!("serve.shard.{i}");
        let failed = chaos.fails(&site, self.attempts);
        self.attempts += 1;
        if failed {
            self.poisoned = chaos.is_permanent(&site);
            return None;
        }
        let mut run = self.runs.swap_remove(0);
        // Each run is sorted and deduplicated already; only a release
        // after a quarantine finds more than one.
        if !self.runs.is_empty() {
            run.extend(self.runs.drain(..).flatten());
            keep_earliest(&mut run);
        }
        Some(winning_upserts(shard, run))
    }
}

/// What an ingestion run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Updates merged (submitted and not lost).
    pub updates: u64,
    /// Raw addresses submitted (before any dedup).
    pub raw_addresses: u64,
    /// Unique addresses in the final snapshot.
    pub unique_addresses: u64,
    /// Duplicates coalesced across updates (weekly re-publications).
    pub duplicates: u64,
    /// Epochs published.
    pub epochs_published: u64,
    /// Epochs published with at least one quarantined shard.
    pub degraded_epochs: u64,
}

/// The full accounting of an ingestion run: stats plus exactly which
/// updates and shards (if any) lost data.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Counters for the processed stream.
    pub stats: IngestStats,
    /// `(seq, reason)` for every submitted update that was lost (an
    /// injected crash or exhausted retries), ascending by seq.
    pub lost_updates: Vec<(u64, String)>,
    /// Shards still quarantined at the end: their parked runs never
    /// merged. Empty unless a permanent fault was injected.
    pub quarantined_shards: Vec<u32>,
    /// Why the store does not serve the last snapshot built, when it
    /// does not: a publish it refused that no later publish made good.
    pub unserved: Option<String>,
}

impl IngestReport {
    /// True when every submitted update reached the snapshot the store
    /// serves.
    pub fn is_complete(&self) -> bool {
        self.lost_updates.is_empty()
            && self.quarantined_shards.is_empty()
            && self.unserved.is_none()
    }

    /// The loss report in the workspace-wide `LOST <unit> (<reason>)`
    /// site vocabulary.
    pub fn loss(&self) -> LossReport {
        let mut loss = LossReport::new();
        for (seq, reason) in &self.lost_updates {
            loss.record(format!("serve.worker.update.{seq}"), reason.clone());
        }
        for &i in &self.quarantined_shards {
            loss.record(
                format!("serve.shard.{i}"),
                "permanently quarantined; parked runs never merged",
            );
        }
        if let Some(reason) = &self.unserved {
            loss.record("store.publish", reason.clone());
        }
        loss
    }
}

/// Ingestion into one store: each [`submit`](Ingestor::submit) merges
/// one update and publishes it as the next epoch.
pub struct Ingestor {
    store: Arc<HitlistStore>,
    chaos: Arc<dyn Chaos>,
    /// The last snapshot built: the only copy of the corpus held here.
    current: Snapshot,
    held_at_start: u64,
    parked: Vec<Parked>,
    stats: IngestStats,
    /// Entries parked for merging, over the whole run.
    arrived: u64,
    next_seq: u64,
    lost: Vec<(u64, String)>,
}

impl Ingestor {
    /// Ingests into `store` with no fault injection.
    pub fn new(store: Arc<HitlistStore>) -> Self {
        Self::with_chaos(store, Arc::new(NoChaos))
    }

    /// Ingests into `store`, consulting `chaos` at every fault site (see
    /// the module docs for the site vocabulary).
    pub fn with_chaos(store: Arc<HitlistStore>, chaos: Arc<dyn Chaos>) -> Self {
        let current = Snapshot::clone(&store.snapshot());
        let shard_count = current.shard_count();
        Ingestor {
            store,
            chaos,
            held_at_start: current.len(),
            current,
            parked: vec![Parked::default(); shard_count],
            stats: IngestStats::default(),
            arrived: 0,
            next_seq: 0,
            lost: Vec::new(),
        }
    }

    /// Normalizes, merges and publishes one update as the next epoch.
    ///
    /// An update lost to an injected fault publishes nothing and is
    /// accounted in the final [`IngestReport`]; it is not an error.
    /// A publish the store refuses is: the store keeps serving its
    /// previous epoch, and the next publish carries this update too.
    pub fn submit(&mut self, update: PublicationUpdate) -> Result<(), PublishError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Err(reason) = admit(self.chaos.as_ref(), seq) {
            self.lost.push((seq, reason));
            return Ok(());
        }
        let store = Arc::clone(&self.store);
        let metrics = store.metrics();
        let started = Instant::now();
        let batch = {
            let _span = v6obs::span("serve.normalize");
            normalize(update, self.current.shard_count().trailing_zeros())
        };
        metrics.record_normalize_latency(started.elapsed());

        let _span = v6obs::span("serve.merge");
        let started = Instant::now();
        self.stats.updates += 1;
        self.stats.raw_addresses += batch.raw_addresses;
        metrics.record_ingested(batch.raw_addresses);
        let mut changes = vec![ShardChange::default(); self.parked.len()];
        for (i, run) in batch.per_shard.into_iter().enumerate() {
            if !run.is_empty() {
                self.arrived += run.len() as u64;
                self.parked[i].runs.push(run);
            }
            let shard = &self.current.shards()[i];
            if let Some(upserts) = self.parked[i].release(i, self.chaos.as_ref(), shard) {
                changes[i].upserts = upserts;
            }
        }
        for (prefix, week) in batch.aliases {
            let held = self.current.alias_week(&prefix);
            if held.is_none_or(|held| week < held) {
                self.current.route_alias(&mut changes, prefix, Some(week));
            }
        }
        let published = self.publish_next(&changes);
        metrics.record_ingest_batch_latency(started.elapsed());
        published
    }

    /// Flushes the quarantine and returns the stats.
    pub fn finish(self) -> IngestStats {
        self.finish_report().stats
    }

    /// Flushes the quarantine and returns the full accounting, including
    /// lost updates, quarantined shards and a store left behind.
    pub fn finish_report(mut self) -> IngestReport {
        // Final flush: retry each quarantined shard until its transient
        // script clears (attempt counts only grow) or it proves permanent.
        let mut changes = vec![ShardChange::default(); self.parked.len()];
        let mut recovered = false;
        let chaos = self.chaos.as_ref();
        for (i, p) in self.parked.iter_mut().enumerate() {
            while !p.runs.is_empty() && !p.poisoned {
                if let Some(upserts) = p.release(i, chaos, &self.current.shards()[i]) {
                    changes[i].upserts = upserts;
                    recovered = true;
                }
            }
        }
        // A refused flush publish shows in the served-content check below.
        if recovered {
            let _ = self.publish_next(&changes);
        }
        // Ingestion only adds addresses, so every entry that was merged and
        // did not add one coalesced with an entry already there.
        let still_parked: usize = self.parked.iter().flat_map(|p| &p.runs).map(Vec::len).sum();
        self.stats.duplicates =
            self.arrived - still_parked as u64 - (self.current.len() - self.held_at_start);
        let served = self.store.snapshot();
        let unserved = (served.content_checksum() != self.current.content_checksum()).then(|| {
            format!(
                "store serves epoch {} (content {:016x}), not the last snapshot built ({:016x})",
                served.epoch(),
                served.content_checksum(),
                self.current.content_checksum()
            )
        });
        let report = IngestReport {
            stats: self.stats,
            lost_updates: self.lost,
            quarantined_shards: quarantined(&self.parked),
            unserved,
        };
        // Definitive loss accounting for this run: `chaos.lost_units` is
        // bumped exactly once per lost unit, here (not per retry, so the
        // counter reconciles against `report.loss().len()`).
        v6obs::counter("chaos.lost_units").add(report.loss().len() as u64);
        report
    }

    /// Carries `current` forward through `changes` and publishes it as
    /// the next epoch, degraded by whatever is still parked.
    fn publish_next(&mut self, changes: &[ShardChange]) -> Result<(), PublishError> {
        let mut next = self.current.with_changes(changes);
        next.week = next.latest_first_week();
        next.missing_shards = quarantined(&self.parked);
        self.stats.unique_addresses = next.len();
        let degraded = next.is_degraded();
        // The store numbers the epoch on its own copy: untouched and
        // quarantined shards are shared by pointer with what it serves, so
        // its integrity walk and its log delta cover only the rest.
        let published = self.store.publish(next.clone());
        self.current = next;
        published?;
        self.stats.epochs_published += 1;
        self.stats.degraded_epochs += u64::from(degraded);
        Ok(())
    }
}

/// Consults update `seq`'s `serve.worker.update.<seq>` site until it
/// lets the update through, or returns why the update is lost.
fn admit(chaos: &dyn Chaos, seq: u64) -> Result<(), String> {
    let site = format!("serve.worker.update.{seq}");
    let mut attempt = 0u32;
    // Consult through `Chaos::decide` (not the raw script) so every
    // injected fault shows up in the `chaos.decisions.*` counters.
    loop {
        match chaos.decide(&site, attempt) {
            Fault::None => return Ok(()),
            Fault::Stall(d) => {
                std::thread::sleep(d);
                return Ok(());
            }
            Fault::Error if attempt < chaos.retry_budget() => attempt += 1,
            Fault::Error => return Err(format!("update dropped after {} attempts", attempt + 1)),
            Fault::Panic => return Err("update crashed mid-normalize".into()),
        }
    }
}

/// Indices of the shards still holding parked runs.
fn quarantined(parked: &[Parked]) -> Vec<u32> {
    (0..parked.len() as u32)
        .filter(|&i| !parked[i as usize].runs.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;
    use v6chaos::{ScriptedChaos, SiteScript};

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn weekly_updates_accumulate_and_dedup() {
        let store = Arc::new(HitlistStore::new("svc", 4));
        let mut ingest = Ingestor::new(store.clone());
        ingest
            .submit(PublicationUpdate::Week {
                week: 0,
                addresses: vec![addr("2001:db8:1::1"), addr("2001:db8:2::1")],
            })
            .unwrap();
        ingest
            .submit(PublicationUpdate::Week {
                week: 1,
                addresses: vec![addr("2001:db8:1::1"), addr("2001:db8:3::1")],
            })
            .unwrap();
        ingest
            .submit(PublicationUpdate::Aliases {
                week: 1,
                prefixes: vec!["2001:db8:3::/48".parse().unwrap()],
            })
            .unwrap();
        let stats = ingest.finish();

        assert_eq!(stats.updates, 3);
        assert_eq!(stats.raw_addresses, 4);
        assert_eq!(stats.unique_addresses, 3);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.epochs_published, 3);
        assert_eq!(stats.degraded_epochs, 0);

        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 3);
        // Re-published address keeps its first week.
        assert_eq!(snap.first_week(addr("2001:db8:1::1")), Some(0));
        assert_eq!(snap.first_week(addr("2001:db8:3::1")), Some(1));
        assert!(snap.is_aliased(addr("2001:db8:3::42")));
        assert!(snap.verify_integrity());
        assert!(!snap.is_degraded());
    }

    #[test]
    fn passive_observations_map_to_weeks() {
        let store = Arc::new(HitlistStore::new("svc", 1));
        let mut ingest = Ingestor::new(store.clone());
        let bits = u128::from(addr("2001:db8::1"));
        ingest
            .submit(PublicationUpdate::Passive {
                observations: vec![(bits, 0), (bits, 8 * 86_400)],
            })
            .unwrap();
        let stats = ingest.finish();
        assert_eq!(stats.unique_addresses, 1);
        // Both observations are week 0 / week 1; earliest wins.
        assert_eq!(store.snapshot().first_week(addr("2001:db8::1")), Some(0));
    }

    #[test]
    fn merge_run_keeps_earliest_week() {
        let mut b = crate::SnapshotBuilder::new("svc", 1);
        b.add_bits(1, 5);
        b.add_bits(3, 1);
        let held = b.build();
        // An earlier week wins, a new address is kept, a later week is
        // dropped.
        let upserts = winning_upserts(&held.shards()[0], vec![(1, 2), (2, 9), (3, 4)]);
        assert_eq!(upserts, vec![(1, 2), (2, 9)]);
        let change = ShardChange {
            upserts,
            ..ShardChange::default()
        };
        let merged = held.with_changes(&[change]);
        let entries: Vec<_> = merged.shards()[0].entries().collect();
        assert_eq!(entries, vec![(1, 2), (2, 9), (3, 1)]);
        // Of the three entries one added an address: two duplicates.
        assert_eq!(3 - (merged.len() - held.len()), 2);
    }

    #[test]
    fn transient_worker_errors_retry_and_lose_nothing() {
        let store = Arc::new(HitlistStore::new("svc", 2));
        let chaos = ScriptedChaos::new()
            .with("serve.worker.update.0", SiteScript::transient(2))
            .with("serve.worker.update.1", SiteScript::transient(1));
        let mut ingest = Ingestor::with_chaos(store.clone(), Arc::new(chaos));
        for week in 0..3u64 {
            ingest
                .submit(PublicationUpdate::Week {
                    week,
                    addresses: vec![addr(&format!("2001:db8:{week}::1"))],
                })
                .unwrap();
        }
        let report = ingest.finish_report();
        assert!(report.is_complete(), "{:?}", report);
        assert!(report.loss().is_empty());
        assert_eq!(report.stats.updates, 3);
        assert_eq!(store.snapshot().len(), 3);
    }
}
