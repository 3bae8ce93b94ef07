//! A store's streaming operators follow every publish path.
//!
//! `HitlistStore::enable_analytics` rebuilds the operators from the
//! served snapshot and every later publish folds its epoch's record into
//! them. After each step, whatever path it took, the operators must sit
//! at the served epoch and equal a batch build over the served content
//! (`Analytics::from_entries`): `publish`, `publish_as` (a stale epoch
//! must not move them), `publish_delta` of a record, a
//! persistent store recovered and re-enabled, and four threads
//! publishing at once.

use std::sync::{Arc, Barrier};

use v6addr::{Iid, Mac};
use v6serve::persist::{delta_between, flatten_snapshot};
use v6serve::{HitlistStore, PublishError, SnapshotBuilder, StoreConfig};
use v6stream::{country_code, Analytics, AsTag, PrefixAsTable, SharedResolver};

const SHARDS: usize = 4;
const AS_BASES: [u128; 2] = [0x2001_0db8 << 96, 0x2a00_0001 << 96];

fn resolver() -> SharedResolver {
    Arc::new(PrefixAsTable::new(
        AS_BASES
            .iter()
            .zip(1u16..)
            .map(|(&base, index)| {
                (
                    base,
                    32,
                    AsTag {
                        index,
                        country: country_code(*b"DE"),
                    },
                )
            })
            .collect(),
    ))
}

/// Step `k`'s corpus: a universe of EUI-64 devices and opaque IIDs over
/// two ASes and 8 /48s, in which every step drops a third of it, brings
/// back what the previous one dropped, re-dates a fifth and moves the
/// devices to another /64 every third step.
fn corpus(k: u32) -> SnapshotBuilder {
    let mut b = SnapshotBuilder::new("svc", SHARDS);
    for i in 0..96u32 {
        if (i + k).is_multiple_of(3) {
            continue;
        }
        let base = AS_BASES[(i % 2) as usize];
        let net48 = u128::from(i % 8) << 80;
        let subnet = u128::from((i / 8 + k / 3) % 4) << 64;
        let iid = if i < 48 {
            u128::from(Iid::from_mac(Mac::from_u64(0x0050_5600_0000 | u64::from(i % 12))).as_u64())
        } else {
            0x9e37_79b9 * u128::from(i + 1)
        };
        let week = if (i + k).is_multiple_of(5) { k } else { i % 4 };
        b.add_bits(base | net48 | subnet | iid, week);
    }
    b
}

/// The operators are at the served epoch and equal a batch build over
/// the served content. The snapshot is read under the operators' lock,
/// which a publish holds across its swap and its fold.
fn assert_operators_current(store: &HitlistStore) {
    let (epoch, served, sums) = store
        .analytics(|epoch, ops| (epoch, store.snapshot(), ops.checksums()))
        .expect("analytics enabled");
    assert_eq!(epoch, served.epoch());
    let batch = Analytics::from_entries(resolver(), &flatten_snapshot(&served).0);
    assert_eq!(sums, batch.checksums(), "epoch {epoch}");
}

#[test]
fn every_in_memory_publish_path_keeps_the_operators_current() {
    let store = HitlistStore::new("svc", SHARDS);
    assert!(store.analytics(|epoch, _| epoch).is_none());
    store.publish(corpus(1).build()).unwrap();
    // Enabling on a populated store rebuilds from what it serves.
    store.enable_analytics(resolver());
    assert_operators_current(&store);

    for k in 2..=4 {
        store.publish(corpus(k).build()).unwrap();
        assert_operators_current(&store);
    }
    assert_eq!(store.publish_as(corpus(5).build(), 9).unwrap().epoch, 9);
    assert_operators_current(&store);

    // A stale epoch is accepted by an in-memory store but served to
    // nobody, and the operators stay where the served snapshot is.
    store.publish_as(corpus(6).build(), 7).unwrap();
    assert_eq!(store.epoch(), 9);
    assert_eq!(store.analytics(|epoch, _| epoch), Some(9));
    assert_operators_current(&store);

    assert_eq!(store.publish(corpus(7).build()).unwrap().epoch, 10);
    assert_operators_current(&store);

    // A publisher holding the record: the one the store applies is
    // the one the operators fold.
    let delta = delta_between(&store.snapshot(), &corpus(8).build(), 11);
    store.publish_delta(&delta).unwrap();
    assert_operators_current(&store);

    // Enabling again rebuilds from scratch, to the same state.
    store.enable_analytics(resolver());
    assert_operators_current(&store);
}

#[test]
fn a_recovered_store_re_enables_and_keeps_folding() {
    let dir = v6store::scratch_dir("serve-store-analytics");
    let cfg = StoreConfig::new(&dir).with_fsync(false);
    {
        let store = HitlistStore::persistent("svc", SHARDS, cfg.clone()).unwrap();
        store.enable_analytics(resolver());
        assert_operators_current(&store);
        for k in 1..=3 {
            store.publish(corpus(k).build()).unwrap();
            assert_operators_current(&store);
        }
        // The log refuses a stale epoch; nothing moves.
        assert!(matches!(
            store.publish_as(corpus(4).build(), 2),
            Err(PublishError::Persistence(_))
        ));
        assert_eq!(store.analytics(|epoch, _| epoch), Some(3));
        assert_operators_current(&store);
    }

    let (store, report) = HitlistStore::recover(cfg).unwrap();
    assert_eq!(report.recovered_epoch, 3);
    assert!(
        store.analytics(|epoch, _| epoch).is_none(),
        "operators are process state"
    );
    store.enable_analytics(resolver());
    assert_operators_current(&store);
    store.publish(corpus(5).build()).unwrap();
    assert_operators_current(&store);
    let delta = delta_between(&store.snapshot(), &corpus(6).build(), 8);
    store.publish_delta(&delta).unwrap();
    assert_eq!(store.analytics(|epoch, _| epoch), Some(8));
    assert_operators_current(&store);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_publishers_serve_every_epoch_they_are_handed() {
    const THREADS: u32 = 4;
    const EACH: u32 = 6;
    let store = Arc::new(HitlistStore::new("svc", SHARDS));
    store.enable_analytics(resolver());
    let start = Arc::new(Barrier::new(THREADS as usize));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (store, start) = (Arc::clone(&store), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                (0..EACH)
                    .map(|i| {
                        let epoch = store.publish(corpus(t * EACH + i).build()).unwrap().epoch;
                        // Allocation, swap and fold are one step: by the
                        // time a publish returns, its epoch was served.
                        let at = store.analytics(|epoch, _| epoch).unwrap();
                        assert!(at >= epoch, "operators at {at} after publishing {epoch}");
                        epoch
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let mut epochs: Vec<u64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("publisher"))
        .collect();
    epochs.sort_unstable();
    assert_eq!(epochs, (1..=u64::from(THREADS * EACH)).collect::<Vec<_>>());
    assert_eq!(store.epoch(), u64::from(THREADS * EACH));
    assert_operators_current(&store);
}
