//! Chaos suite for the serving path: shard quarantine, degraded-epoch
//! publication, recovery, and loss accounting.
//!
//! Uses a 2-shard store so shard targeting is explicit: with
//! `shard_bits = 1`, `2001:db8:0::/48` lands in shard 0 and
//! `2001:db8:1::/48` in shard 1 (the shard key is the low bits of the
//! /48).

use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Duration;

use v6chaos::{ScriptedChaos, SiteScript};
use v6serve::{
    HitlistStore, Ingestor, PublicationUpdate, ServeStatus, SnapshotBuilder, StoreConfig,
};

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// One weekly update carrying one address per shard.
fn week(w: u64) -> PublicationUpdate {
    PublicationUpdate::Week {
        week: w,
        addresses: vec![
            addr(&format!("2001:db8:0::{}", w + 1)),
            addr(&format!("2001:db8:1::{}", w + 1)),
        ],
    }
}

/// The clean run's final content checksum for `n` weeks of [`week`].
fn clean_checksum(n: u64) -> u64 {
    let store = Arc::new(HitlistStore::new("chaos", 2));
    let mut ingest = Ingestor::new(store.clone());
    for w in 0..n {
        ingest.submit(week(w)).expect("in-memory publish");
    }
    let stats = ingest.finish();
    assert_eq!(stats.degraded_epochs, 0);
    store.snapshot().content_checksum()
}

#[test]
fn quarantined_shard_recovers_mid_run_to_the_clean_checksum() {
    let clean = clean_checksum(3);
    let store = Arc::new(HitlistStore::new("chaos", 2));
    // Shard 1's first two merge consults fail; the third drains the
    // whole quarantine while updates are still flowing.
    let chaos = ScriptedChaos::new().with("serve.shard.1", SiteScript::transient(2));
    let mut ingest = Ingestor::with_chaos(store.clone(), Arc::new(chaos));
    for w in 0..3 {
        ingest.submit(week(w)).expect("in-memory publish");
    }
    let report = ingest.finish_report();

    assert!(report.is_complete(), "{report:?}");
    assert!(report.loss().is_empty());
    assert_eq!(report.stats.epochs_published, 3);
    assert_eq!(report.stats.degraded_epochs, 2);
    assert_eq!(store.metrics().degraded_publishes(), 2);

    let snap = store.snapshot();
    assert!(snap.verify_integrity());
    assert!(!snap.is_degraded());
    assert_eq!(snap.content_checksum(), clean);
}

#[test]
fn quarantined_shard_recovers_in_the_final_flush() {
    let clean = clean_checksum(3);
    let store = Arc::new(HitlistStore::new("chaos", 2));
    // Five failing consults outlast the three in-stream batches, so the
    // shard is still quarantined after the last update; the finish
    // flush keeps retrying, drains it, and publishes a recovery epoch.
    let chaos = ScriptedChaos::new().with("serve.shard.1", SiteScript::transient(5));
    let mut ingest = Ingestor::with_chaos(store.clone(), Arc::new(chaos));
    for w in 0..3 {
        ingest.submit(week(w)).expect("in-memory publish");
    }
    let report = ingest.finish_report();

    assert!(report.is_complete(), "{report:?}");
    assert_eq!(
        report.stats.epochs_published, 4,
        "missing the recovery epoch"
    );
    assert_eq!(report.stats.degraded_epochs, 3);

    let snap = store.snapshot();
    assert!(snap.verify_integrity());
    assert!(!snap.is_degraded(), "recovery epoch still degraded");
    assert_eq!(snap.epoch(), 4);
    assert_eq!(snap.content_checksum(), clean);
}

#[test]
fn permanent_quarantine_serves_degraded_epochs_and_accounts_the_loss() {
    let store = Arc::new(HitlistStore::new("chaos", 2));
    let chaos = ScriptedChaos::new().with("serve.shard.1", SiteScript::permanent());
    let mut ingest = Ingestor::with_chaos(store.clone(), Arc::new(chaos));

    // Week 0 touches only shard 0: the poisoned shard has no pending
    // runs yet, so epoch 1 publishes healthy.
    ingest
        .submit(PublicationUpdate::Week {
            week: 0,
            addresses: vec![addr("2001:db8:0::1")],
        })
        .expect("in-memory publish");
    // Week 1 touches both shards: shard 1's run is parked forever, the
    // epoch publishes with shard 0's update and shard 1 marked stale.
    ingest.submit(week(1)).expect("in-memory publish");
    let report = ingest.finish_report();

    assert!(!report.is_complete());
    assert_eq!(report.quarantined_shards, vec![1]);
    assert!(report.lost_updates.is_empty());
    let loss = report.loss().to_string();
    assert!(
        loss.starts_with("LOST serve.shard.1 ("),
        "unexpected loss report: {loss}"
    );
    assert_eq!(report.stats.epochs_published, 2);
    assert_eq!(report.stats.degraded_epochs, 1);

    let snap = store.snapshot();
    assert!(snap.verify_integrity());
    assert_eq!(snap.missing_shards(), &[1]);
    assert_eq!(
        snap.status(),
        ServeStatus::Degraded {
            missing_shards: vec![1]
        }
    );

    // Readers keep getting answers: shard 0 reflects the latest epoch,
    // shard 1 serves its last good (here: empty) content and every
    // answer touching it is flagged degraded.
    let fresh = addr("2001:db8:0::2");
    assert!(snap.contains(fresh) && !snap.shard_missing(fresh));
    let prior = addr("2001:db8:0::1");
    assert!(snap.contains(prior) && !snap.shard_missing(prior));
    let stale = addr("2001:db8:1::2");
    assert!(!snap.contains(stale) && snap.shard_missing(stale));
    assert_eq!(snap.len(), 2);
}

#[test]
fn a_crashed_update_is_lost_alone() {
    let store = Arc::new(HitlistStore::new("chaos", 2));
    // Update 1 crashes mid-normalize; ingestion goes on with update 2.
    let chaos = ScriptedChaos::new().with("serve.worker.update.1", SiteScript::permanent_panic());
    let mut ingest = Ingestor::with_chaos(store.clone(), Arc::new(chaos));
    for w in 0..4 {
        ingest.submit(week(w)).expect("in-memory publish");
    }
    let report = ingest.finish_report();

    assert_eq!(report.lost_updates.len(), 1);
    assert_eq!(report.lost_updates[0].0, 1);
    assert!(report.loss().contains("serve.worker.update.1"));
    assert!(report.quarantined_shards.is_empty());
    assert_eq!(report.stats.updates, 3, "surviving updates all merged");

    // The surviving updates' addresses are all served.
    let snap = store.snapshot();
    assert!(snap.verify_integrity());
    assert!(!snap.is_degraded());
    // week(w) publishes ::{w+1} in both shards; week 1 was lost.
    for w in [0u64, 2, 3] {
        assert!(
            snap.contains(addr(&format!("2001:db8:0::{}", w + 1))),
            "week {w}"
        );
        assert!(
            snap.contains(addr(&format!("2001:db8:1::{}", w + 1))),
            "week {w}"
        );
    }
    assert!(!snap.contains(addr("2001:db8:0::2")), "lost week served");
}

#[test]
fn epoch_k_holds_exactly_updates_0_through_k() {
    // Update 0 is slow to normalize; epoch 1, read back from the log,
    // must still hold it and nothing submitted after it.
    let dir = v6store::scratch_dir("serve-ingest-order");
    let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
    let store = Arc::new(HitlistStore::persistent("chaos", 2, cfg).unwrap());
    let stall = SiteScript::ok().with_stall(Duration::from_millis(50));
    let chaos = ScriptedChaos::new().with("serve.worker.update.0", stall);
    let mut ingest = Ingestor::with_chaos(store.clone(), Arc::new(chaos));
    for w in 0..2 {
        ingest.submit(week(w)).expect("publish");
    }
    assert!(ingest.finish_report().is_complete());

    for k in 0..2u64 {
        let mut want = SnapshotBuilder::new("chaos", 2);
        for w in 0..=k {
            for net in 0..2 {
                want.add_address(addr(&format!("2001:db8:{net}::{}", w + 1)), w as u32);
            }
        }
        let rec = v6store::recover_at(&dir, k + 1).unwrap();
        assert_eq!(rec.state.epoch, k + 1);
        assert_eq!(
            rec.state.content_checksum,
            want.build().content_checksum(),
            "epoch {} is not updates 0..={k}",
            k + 1
        );
    }
    std::fs::remove_dir_all(dir).ok();
}
