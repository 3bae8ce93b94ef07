//! Kill-and-recover suite for the injected write-path fault sites.
//!
//! Each test injects one fault class at a scripted site, "crashes" by
//! dropping the log with the damage still on disk, and asserts that
//! recovery lands on a previously published epoch with the
//! truncate/quarantine report matching the injected fault exactly:
//!
//! - `store.append.<epoch>` + `Error`  → torn write (frame cut mid-way)
//! - `store.append.<epoch>` + `Panic`  → partial flush (tail page lost)
//! - `store.bitrot.<epoch>`            → silent bit flip, caught at recovery
//! - `store.checkpoint.<epoch>`        → torn checkpoint, log fallback

mod common;

use std::sync::Arc;

use common::append_view;
use v6chaos::{ScriptedChaos, SiteScript};
use v6obs::Registry;
use v6store::{recover, EpochLog, EpochState, EpochView, StoreConfig};

fn view(epoch: u64, entries: &[(u128, u32)]) -> EpochView<'_> {
    EpochView {
        epoch,
        week: epoch,
        content_checksum: 0xc0de_0000 + epoch,
        missing_shards: &[],
        entries,
        aliases: &[],
    }
}

fn store_with(dir: &std::path::Path, interval: u64, chaos: ScriptedChaos) -> EpochLog {
    let cfg = StoreConfig::new(dir)
        .checkpoint_every(interval)
        .with_fsync(false);
    EpochLog::create_with(cfg, "chaos", 1, &Registry::new(), Arc::new(chaos)).expect("create")
}

#[test]
fn torn_write_fails_the_append_and_recovery_keeps_the_prior_epoch() {
    let dir = v6store::scratch_dir("chaos-torn");
    let chaos = ScriptedChaos::new().with("store.append.2", SiteScript::transient(1));
    let mut log = store_with(&dir, 0, chaos);
    let mut mirror = EpochState::default();
    append_view(&mut log, &mut mirror, view(1, &[(10, 0)])).unwrap();
    let err = append_view(&mut log, &mut mirror, view(2, &[(10, 0), (20, 1)])).unwrap_err();
    assert!(err.to_string().contains("torn write"), "{err}");
    drop(log); // crash with the torn frame on disk

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.state.epoch, 1);
    assert_eq!(rec.state.content_checksum, 0xc0de_0001);
    assert_eq!(rec.state.entries, vec![(10, 0)]);
    assert!(
        rec.report.truncated_bytes > 0,
        "torn bytes must be reported"
    );
    assert_eq!(rec.report.quarantined, 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn partial_flush_fails_the_append_and_recovery_keeps_the_prior_epoch() {
    let dir = v6store::scratch_dir("chaos-flush");
    let chaos = ScriptedChaos::new().with("store.append.2", SiteScript::transient_panic(1));
    let mut log = store_with(&dir, 0, chaos);
    let mut mirror = EpochState::default();
    append_view(&mut log, &mut mirror, view(1, &[(10, 0)])).unwrap();
    let err = append_view(&mut log, &mut mirror, view(2, &[(10, 0), (20, 1)])).unwrap_err();
    assert!(err.to_string().contains("partial flush"), "{err}");
    drop(log);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.state.epoch, 1);
    assert!(rec.report.truncated_bytes > 0);
    assert_eq!(rec.report.quarantined, 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn bitrot_is_silent_at_append_time_and_quarantined_at_recovery() {
    let dir = v6store::scratch_dir("chaos-rot");
    let chaos = ScriptedChaos::new().with("store.bitrot.2", SiteScript::transient(1));
    let mut log = store_with(&dir, 0, chaos);
    let mut mirror = EpochState::default();
    append_view(&mut log, &mut mirror, view(1, &[(10, 0)])).unwrap();
    // The corrupted append *succeeds* — that is what makes bit rot
    // dangerous — and only recovery notices.
    append_view(&mut log, &mut mirror, view(2, &[(10, 0), (20, 1)])).unwrap();
    assert_eq!(log.epoch(), 2);
    drop(log);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.state.epoch, 1, "rotten epoch must not be served");
    assert_eq!(rec.state.content_checksum, 0xc0de_0001);
    assert_eq!(rec.report.quarantined, 1);
    assert!(rec.report.truncated_bytes > 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn torn_checkpoint_is_skipped_and_the_log_still_replays() {
    let dir = v6store::scratch_dir("chaos-ckpt");
    let chaos = ScriptedChaos::new().with("store.checkpoint.2", SiteScript::transient(1));
    let mut log = store_with(&dir, 2, chaos);
    let mut mirror = EpochState::default();
    append_view(&mut log, &mut mirror, view(1, &[(10, 0)])).unwrap();
    let receipt = append_view(&mut log, &mut mirror, view(2, &[(10, 0), (20, 1)])).unwrap();
    assert!(
        !receipt.checkpointed,
        "faulted checkpoint must not count as compaction"
    );
    drop(log);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.report.corrupt_checkpoints, 1);
    assert_eq!(rec.report.checkpoint_epoch, None, "fell back to the log");
    assert_eq!(rec.report.replayed, 2);
    assert_eq!(rec.state.epoch, 2);
    assert_eq!(rec.state.entries, vec![(10, 0), (20, 1)]);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn failed_append_self_heals_on_the_next_append() {
    let dir = v6store::scratch_dir("chaos-heal");
    let chaos = ScriptedChaos::new().with("store.append.2", SiteScript::transient(1));
    let mut log = store_with(&dir, 0, chaos);
    let mut mirror = EpochState::default();
    append_view(&mut log, &mut mirror, view(1, &[(10, 0)])).unwrap();
    append_view(&mut log, &mut mirror, view(2, &[(10, 0), (20, 1)])).unwrap_err();
    // The process survived the write error; the next epoch truncates
    // the torn bytes before appending, so the log stays parseable.
    append_view(&mut log, &mut mirror, view(3, &[(10, 0), (30, 2)])).unwrap();
    drop(log);

    let rec = recover(&dir).unwrap();
    assert_eq!(rec.state.epoch, 3);
    assert_eq!(rec.state.entries, vec![(10, 0), (30, 2)]);
    assert_eq!(rec.report.truncated_bytes, 0, "self-heal left no garbage");
    assert_eq!(rec.report.quarantined, 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn write_path_metrics_land_in_the_registry() {
    let dir = v6store::scratch_dir("chaos-metrics");
    let registry = Registry::new();
    let cfg = StoreConfig::new(&dir).checkpoint_every(2).with_fsync(false);
    let mut log =
        EpochLog::create_with(cfg, "metrics", 0, &registry, Arc::new(v6chaos::NoChaos)).unwrap();
    let mut mirror = EpochState::default();
    append_view(&mut log, &mut mirror, view(1, &[(1, 0)])).unwrap();
    append_view(&mut log, &mut mirror, view(2, &[(1, 0), (2, 0)])).unwrap();
    drop(log);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("store.log.appends"), Some(2));
    assert_eq!(snap.counter("store.log.checkpoints"), Some(1));
    assert!(snap.counter("store.log.bytes").unwrap() > 0);

    let rec_registry = Registry::new();
    v6store::recover_with(&dir, None, &rec_registry).unwrap();
    let snap = rec_registry.snapshot();
    // The checkpoint compacted everything: nothing left to replay.
    assert_eq!(snap.counter("store.recover.replayed"), Some(0));
    assert_eq!(snap.counter("store.recover.truncated"), Some(0));
    assert_eq!(snap.counter("store.recover.quarantined"), Some(0));
    std::fs::remove_dir_all(dir).ok();
}
