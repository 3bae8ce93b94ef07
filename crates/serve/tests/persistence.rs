//! Durability round-trip and kill-and-recover suite for the serving
//! store.
//!
//! The two acceptance properties of the write-ahead design:
//!
//! 1. **Round trip**: publish N epochs, drop the store, recover — the
//!    content checksum is byte-identical at *every* epoch (via
//!    time-travel recovery over the un-compacted log), not just the
//!    newest.
//! 2. **Crash invariant**: for every injected crash point (torn write,
//!    partial flush, bit rot, torn checkpoint), recovery yields a
//!    `content_checksum` equal to some epoch that was previously
//!    published — never a torn or invented state — and the
//!    truncate/quarantine report matches the injected fault.

use std::net::Ipv6Addr;
use std::sync::Arc;

use v6chaos::{FaultPlan, FaultSpec, ScriptedChaos, SiteScript};
use v6serve::persist::{delta_between, flatten_snapshot};
use v6serve::{
    HitlistStore, Ingestor, PublicationUpdate, PublishError, SnapshotBuilder, StoreConfig,
};
use v6stream::{country_code, Analytics, AsTag, PrefixAsTable, SharedResolver};

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// Cumulative snapshot holding weeks `0..=week`, two addresses per week.
fn snapshot_through(week: u32, shards: usize) -> v6serve::Snapshot {
    let mut b = SnapshotBuilder::new("persist", shards);
    for w in 0..=week {
        b.add_address(addr(&format!("2001:db8:{:x}::1", w)), w);
        b.add_address(addr(&format!("2001:db8:{:x}::2", w)), w);
    }
    b.add_alias("2001:db8::/32".parse().unwrap(), 0);
    b.build()
}

#[test]
fn round_trip_preserves_every_epoch_checksum() {
    let dir = v6store::scratch_dir("serve-roundtrip");
    // No compaction: the full delta history stays in the log so every
    // epoch is reachable by time-travel recovery.
    let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
    let store = HitlistStore::persistent("persist", 4, cfg.clone()).unwrap();

    let mut published = vec![(0u64, 0u64)]; // (epoch, checksum): epoch 0 = empty
    for week in 0..6u32 {
        let snap = snapshot_through(week, 4);
        let checksum = snap.content_checksum();
        let receipt = store.publish(snap).unwrap();
        assert!(receipt.persist > std::time::Duration::ZERO);
        published.push((receipt.epoch, checksum));
    }
    assert_eq!(store.epoch(), 6);
    drop(store); // crash

    // Byte-identical checksum at every epoch.
    for &(epoch, checksum) in &published {
        let rec = v6store::recover_at(&dir, epoch).unwrap();
        assert_eq!(rec.state.epoch, epoch);
        assert_eq!(
            rec.state.content_checksum, checksum,
            "epoch {epoch} checksum diverged after recovery"
        );
    }

    // Full store recovery resumes serving and publishing.
    let (store, report) = HitlistStore::recover(cfg).unwrap();
    assert_eq!(report.recovered_epoch, 6);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(report.quarantined, 0);
    assert!(store.is_persistent());
    let snap = store.snapshot();
    assert!(snap.verify_integrity());
    assert_eq!(snap.epoch(), 6);
    assert_eq!(snap.content_checksum(), published[6].1);

    let a = addr("2001:db8:3::1");
    assert_eq!(snap.first_week(a), Some(3));
    assert!(
        snap.longest_alias(a).is_some(),
        "alias registrations survive recovery"
    );

    // Publication continues with the epoch sequence intact.
    let receipt = store.publish(snapshot_through(6, 4)).unwrap();
    assert_eq!(receipt.epoch, 7);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn checkpointed_store_recovers_identically() {
    let dir = v6store::scratch_dir("serve-ckpt");
    let cfg = StoreConfig::new(&dir).checkpoint_every(3).with_fsync(false);
    let store = HitlistStore::persistent("persist", 2, cfg.clone()).unwrap();
    let mut last = 0u64;
    for week in 0..8u32 {
        let snap = snapshot_through(week, 2);
        last = snap.content_checksum();
        store.publish(snap).unwrap();
    }
    drop(store);

    let (store, report) = HitlistStore::recover(cfg).unwrap();
    assert_eq!(report.checkpoint_epoch, Some(6), "interval-3 compaction");
    assert_eq!(report.replayed, 2, "epochs 7 and 8 replay from the log");
    assert_eq!(store.epoch(), 8);
    assert_eq!(store.snapshot().content_checksum(), last);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn publish_delta_logs_the_record_it_is_handed() {
    let dir = v6store::scratch_dir("serve-delta");
    let cfg = StoreConfig::new(&dir).checkpoint_every(3).with_fsync(false);
    let leader = HitlistStore::persistent("persist", 4, cfg.clone()).unwrap();
    let follower_dir = v6store::scratch_dir("serve-delta-follower");
    let follower_cfg = StoreConfig::new(&follower_dir)
        .checkpoint_every(3)
        .with_fsync(false);
    let follower = HitlistStore::persistent("persist", 4, follower_cfg.clone()).unwrap();

    // The leader publishes whole snapshots and derives each record; the
    // follower is handed the record and never sees the whole content.
    // Gapped epoch numbers, as a cluster assigns them.
    for week in 0..8u32 {
        let epoch = 10 + 5 * u64::from(week);
        let next = snapshot_through(week, 4);
        let delta = delta_between(&leader.snapshot(), &next, epoch);
        leader.publish_as(next, epoch).unwrap();
        assert_eq!(follower.publish_delta(&delta).unwrap().epoch, epoch);
    }
    // One log format, whoever derived the record: the two directories
    // hold the same bytes, checkpoints included.
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert_eq!(names.len(), 3, "log + two retained checkpoints: {names:?}");
    for name in &names {
        assert_eq!(
            std::fs::read(dir.join(name)).unwrap(),
            std::fs::read(follower_dir.join(name)).unwrap(),
            "{name:?}"
        );
    }

    // A record that misses its own checksum is refused before the log.
    let mut forged = delta_between(&follower.snapshot(), &snapshot_through(8, 4), 99);
    forged.content_checksum ^= 1;
    let err = follower.publish_delta(&forged).unwrap_err();
    assert_eq!(err, PublishError::IntegrityFailure);
    assert_eq!(follower.epoch(), 45);
    drop(follower);

    let (recovered, report) = HitlistStore::recover(follower_cfg).unwrap();
    assert_eq!(report.recovered_epoch, 45);
    assert_eq!(
        recovered.snapshot().content_checksum(),
        leader.snapshot().content_checksum()
    );
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(follower_dir).ok();
}

#[test]
fn a_record_built_on_another_base_is_refused_before_the_log() {
    let dir = v6store::scratch_dir("serve-delta-base");
    let cfg = StoreConfig::new(&dir).with_fsync(false);
    let store = HitlistStore::persistent("persist", 4, cfg.clone()).unwrap();
    let resolver: SharedResolver = Arc::new(PrefixAsTable::new(vec![(
        0x2001_0db8 << 96,
        32,
        AsTag {
            index: 1,
            country: country_code(*b"DE"),
        },
    )]));
    store.enable_analytics(Arc::clone(&resolver));

    // r carries S1 to S2, but another publish lands before it.
    store.publish(snapshot_through(1, 4)).unwrap();
    let r = delta_between(&store.snapshot(), &snapshot_through(2, 4), 3);
    store.publish(snapshot_through(0, 4)).unwrap();
    let served = store.snapshot();

    assert_eq!(
        store.publish_delta(&r).unwrap_err(),
        PublishError::IntegrityFailure
    );
    assert_eq!(store.epoch(), 2);
    let batch = Analytics::from_entries(resolver, &flatten_snapshot(&served).0);
    assert_eq!(
        store.analytics(|_, ops| ops.checksums()),
        Some(batch.checksums())
    );
    drop(store);

    let (recovered, report) = HitlistStore::recover(cfg).unwrap();
    assert_eq!(report.recovered_epoch, 2);
    assert_eq!(
        recovered.snapshot().content_checksum(),
        served.content_checksum()
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn failed_append_keeps_the_store_on_its_previous_epoch() {
    let dir = v6store::scratch_dir("serve-fail");
    let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
    let chaos = ScriptedChaos::new().with("store.append.2", SiteScript::transient(1));
    let store = HitlistStore::persistent_with("persist", 2, cfg.clone(), Arc::new(chaos)).unwrap();

    let first = snapshot_through(0, 2);
    let first_checksum = first.content_checksum();
    store.publish(first).unwrap();

    // The write-ahead append for epoch 2 tears: the publish fails and
    // readers never see the would-be epoch.
    let err = store.publish(snapshot_through(1, 2)).unwrap_err();
    assert!(matches!(err, PublishError::Persistence(_)), "{err}");
    assert_eq!(store.epoch(), 1);
    assert_eq!(store.snapshot().content_checksum(), first_checksum);

    // The store stays usable: the next publish burns epoch 2 and lands
    // as epoch 3 (the torn bytes are self-healed before the append).
    let third = snapshot_through(1, 2);
    let third_checksum = third.content_checksum();
    let receipt = store.publish(third).unwrap();
    assert_eq!(receipt.epoch, 3);
    drop(store);

    let (store, report) = HitlistStore::recover(cfg).unwrap();
    assert_eq!(store.epoch(), 3);
    assert_eq!(store.snapshot().content_checksum(), third_checksum);
    assert_eq!(report.quarantined, 0);
    assert_eq!(report.truncated_bytes, 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn bitrot_recovery_lands_on_the_last_good_published_epoch() {
    let dir = v6store::scratch_dir("serve-rot");
    let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
    let chaos = ScriptedChaos::new().with("store.bitrot.2", SiteScript::transient(1));
    let store = HitlistStore::persistent_with("persist", 2, cfg.clone(), Arc::new(chaos)).unwrap();

    let first = snapshot_through(0, 2);
    let first_checksum = first.content_checksum();
    store.publish(first).unwrap();
    // Epoch 2's frame is silently corrupted on disk; the publish itself
    // succeeds and readers serve it from RAM until the "crash".
    store.publish(snapshot_through(1, 2)).unwrap();
    assert_eq!(store.epoch(), 2);
    drop(store);

    let (store, report) = HitlistStore::recover(cfg).unwrap();
    assert_eq!(report.quarantined, 1, "rotten frame must be quarantined");
    assert_eq!(
        store.epoch(),
        1,
        "recovery falls back to the last good epoch"
    );
    assert_eq!(store.snapshot().content_checksum(), first_checksum);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn ingest_pipeline_drives_a_persistent_store() {
    let dir = v6store::scratch_dir("serve-ingest");
    let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
    let store = Arc::new(HitlistStore::persistent("persist", 2, cfg.clone()).unwrap());
    let mut ingest = Ingestor::new(store.clone());
    for w in 0..3u64 {
        ingest
            .submit(PublicationUpdate::Week {
                week: w,
                addresses: vec![
                    addr(&format!("2001:db8:0::{}", w + 1)),
                    addr(&format!("2001:db8:1::{}", w + 1)),
                ],
            })
            .expect("publish");
    }
    let stats = ingest.finish();
    assert_eq!(stats.epochs_published, 3);
    let final_checksum = store.snapshot().content_checksum();
    drop(store);

    let (store, _) = HitlistStore::recover(cfg).unwrap();
    assert_eq!(store.epoch(), 3);
    assert_eq!(store.snapshot().content_checksum(), final_checksum);
    assert!(store.snapshot().contains(addr("2001:db8:0::3")));
    std::fs::remove_dir_all(dir).ok();
}

/// A publish the store refuses reaches the caller, and the report does
/// not call the run complete while the store serves less than was built.
#[test]
fn refused_ingest_publish_is_reported() {
    let dir = v6store::scratch_dir("serve-ingest-refused");
    let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
    let chaos = ScriptedChaos::new().with("store.append.2", SiteScript::transient(1));
    let store = Arc::new(
        HitlistStore::persistent_with("persist", 2, cfg.clone(), Arc::new(chaos)).unwrap(),
    );
    let mut ingest = Ingestor::new(store.clone());
    let week = |w: u64| PublicationUpdate::Week {
        week: w,
        addresses: vec![addr(&format!("2001:db8:{w}::1"))],
    };
    ingest.submit(week(0)).expect("epoch 1 appends");
    let err = ingest.submit(week(1)).unwrap_err();
    assert!(matches!(err, PublishError::Persistence(_)), "{err}");
    let report = ingest.finish_report();

    assert_eq!(store.epoch(), 1);
    assert_eq!(store.snapshot().len(), 1);
    assert_eq!(report.stats.epochs_published, 1);
    assert!(!report.is_complete(), "{report:?}");
    let loss = report.loss();
    assert_eq!(loss.unit_names(), ["store.publish"]);
    std::fs::remove_dir_all(dir).ok();
}

/// Publication steps one seeded kill-and-recover run drives.
const RECOVERY_STEPS: u32 = 24;

/// Plan seeds the kill-and-recover run replays: 5 and 23, then 1–16.
fn recovery_seeds() -> impl Iterator<Item = u64> {
    [5, 23].into_iter().chain(1..=16)
}

/// Cumulative content after `step`: three hashed addresses per week,
/// weeks `0..=step`, a function of `seed` and `step` only.
fn seeded_snapshot(seed: u64, step: u32) -> v6serve::Snapshot {
    let mut b = SnapshotBuilder::new("persist", 4);
    for w in 0..=step {
        for i in 0..3u64 {
            let h = v6netsim::rng::hash64(seed ^ (u64::from(w) << 8 | i), b"persist-seeded-addr");
            b.add_bits((0x2001_0db8u128 << 96) | u128::from(h & 0xffff_ffff), w);
        }
    }
    b.build()
}

/// How often each write fault showed up over the whole seed set.
#[derive(Default)]
struct FaultsSeen {
    torn_writes: u32,
    partial_flushes: u32,
    quarantined: u32,
    corrupt_checkpoints: u32,
}

/// Recovers a killed store and checks where it landed against `acked`,
/// the acknowledged `(epoch, checksum)` history: on the last entry, or
/// on an earlier one only when recovery quarantined a rotten frame.
/// Cuts `acked` back to where recovery landed — the epochs after it are
/// gone, and their numbers will be handed out again.
fn recover_checked(
    cfg: &StoreConfig,
    plan: &Arc<FaultPlan>,
    acked: &mut Vec<(u64, u64)>,
    seen: &mut FaultsSeen,
    step: u32,
) -> HitlistStore {
    let seed = plan.seed();
    let (store, report) = HitlistStore::recover_with(cfg.clone(), plan.clone())
        .unwrap_or_else(|e| panic!("seed {seed} step {step}: recovery failed: {e}"));
    let landed = (store.epoch(), store.snapshot().content_checksum());
    let at = acked.iter().rposition(|&a| a == landed).unwrap_or_else(|| {
        panic!("seed {seed} step {step}: recovered {landed:?}, never acknowledged ({report})")
    });
    assert!(
        at + 1 == acked.len() || report.quarantined > 0,
        "seed {seed} step {step}: recovered {landed:?} behind the last ack {:?} with nothing \
         quarantined ({report})",
        acked.last()
    );
    acked.truncate(at + 1);
    seen.quarantined += report.quarantined;
    seen.corrupt_checkpoints += report.corrupt_checkpoints;
    store
}

/// One seeded run: every publish a write fault fails is a crash, and
/// every seventh step a kill (silent bit rot never fails a publish, so
/// only an unprompted recovery surfaces it).
fn kill_and_recover_run(seed: u64, seen: &mut FaultsSeen) {
    // Write-path faults only, no stalls.
    let plan = Arc::new(FaultPlan::new(
        seed,
        FaultSpec {
            stall_rate: 0.0,
            stall_ms: 0,
            ..FaultSpec::with_permanent(0.45, 0.0)
        },
    ));
    let dir = v6store::scratch_dir("serve-seeded");
    let cfg = StoreConfig::new(&dir).checkpoint_every(4).with_fsync(false);
    let mut store = HitlistStore::persistent_with("persist", 4, cfg.clone(), plan.clone())
        .expect("create durable store");
    let mut acked = vec![(0, store.snapshot().content_checksum())];

    for step in 1..=RECOVERY_STEPS {
        let checksum = seeded_snapshot(seed, step).content_checksum();
        let mut failures = 0u32;
        loop {
            match store.publish(seeded_snapshot(seed, step)) {
                Ok(receipt) => {
                    acked.push((receipt.epoch, checksum));
                    break;
                }
                Err(PublishError::Persistence(err)) => {
                    if err.contains("torn write") {
                        seen.torn_writes += 1;
                    } else if err.contains("partial flush") {
                        seen.partial_flushes += 1;
                    }
                    failures += 1;
                    assert!(
                        failures <= 64,
                        "seed {seed} step {step}: 64 failed publishes"
                    );
                    // Crash with the damage on disk on the first failure.
                    // A retry burns the failed epoch's number, so it
                    // reaches a fresh fault site.
                    if failures == 1 {
                        drop(store);
                        store = recover_checked(&cfg, &plan, &mut acked, seen, step);
                    }
                }
                Err(other) => panic!("seed {seed} step {step}: unexpected publish error: {other}"),
            }
        }
        if step % 7 == 0 {
            drop(store);
            store = recover_checked(&cfg, &plan, &mut acked, seen, step);
        }
    }
    assert_eq!(
        store.snapshot().content_checksum(),
        seeded_snapshot(seed, RECOVERY_STEPS).content_checksum(),
        "seed {seed}: the store does not serve the last step's content"
    );
    drop(store);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn seeded_write_faults_never_lose_an_acknowledged_epoch() {
    let mut seen = FaultsSeen::default();
    for seed in recovery_seeds() {
        kill_and_recover_run(seed, &mut seen);
    }
    // Non-vacuity: the seed set reaches every write fault there is.
    assert!(seen.torn_writes > 0, "no seed tore a write");
    assert!(seen.partial_flushes > 0, "no seed lost a flush");
    assert!(seen.quarantined > 0, "no seed rotted an acknowledged frame");
    assert!(seen.corrupt_checkpoints > 0, "no seed tore a checkpoint");
}
