//! Epoch-swapped snapshot publication.
//!
//! The store holds the current [`Snapshot`] behind `RwLock<Arc<Snapshot>>`.
//! Readers take the read lock just long enough to clone the `Arc` — a
//! few nanoseconds — and then query their snapshot without any lock at
//! all. Publishing a snapshot validates it *outside* any lock, then
//! serializes on one writer mutex (epoch allocation, log append, swap,
//! analytics fold; a record is applied and validated under it too) and
//! takes the read-side write lock only to swap one pointer, so a
//! publication never blocks readers for longer than that swap.
//!
//! The alternative — a mutex around a mutable store — would stall every
//! reader for the full duration of a weekly merge (millions of
//! addresses); the ablation in DESIGN.md quantifies the difference.
//!
//! # Durability
//!
//! A store opened with [`HitlistStore::persistent`] additionally writes
//! each epoch through a [`v6store::EpochLog`] *before* the pointer swap
//! (write-ahead: durable-before-visible), and can be rebuilt from its
//! directory with [`HitlistStore::recover`]. A store built with
//! [`HitlistStore::new`] keeps the previous in-memory-only behavior.
//!
//! What the log is handed is the epoch's [`DeltaRecord`]: the one the
//! publisher already holds ([`HitlistStore::publish_delta`], which
//! applies it to the served snapshot under the writer mutex and refuses
//! it there when it does not reach its own checksum), or one derived by
//! diffing the served snapshot against the new one, shard by shard
//! ([`crate::persist::delta_between`]). The served snapshot *is*
//! the log's last epoch — the swap happens under the writer mutex — so
//! no flat copy of the content is kept beside it, and the content is
//! flattened only on the append that owes a checkpoint.
//!
//! # Streaming analytics
//!
//! [`HitlistStore::enable_analytics`] gives the store a
//! [`v6stream::Analytics`] operator set, and from then on every publish
//! folds the same record into it, asking the snapshot it replaces for
//! the old week of each removed or re-dated address. The swap and the
//! fold happen under the operators' lock, so they always reflect the
//! served epoch, and [`HitlistStore::analytics`] hands out that epoch
//! together with them.

use std::io;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use v6chaos::{Chaos, NoChaos};
use v6store::{DeltaRecord, EpochLog, RecoverError, RecoveryReport, StoreConfig};
use v6stream::{Analytics, SharedResolver};

use crate::metrics::ServeMetrics;
use crate::persist::{delta_between, flatten_snapshot, snapshot_from_state};
use crate::snapshot::Snapshot;

/// Why a publication was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The snapshot failed [`Snapshot::verify_integrity`], or a record
    /// handed to [`HitlistStore::publish_delta`] does not carry the
    /// served snapshot to its own content checksum.
    IntegrityFailure,
    /// The snapshot's shard count differs from the store's.
    ShardMismatch {
        /// Shards the store serves.
        expected: usize,
        /// Shards the snapshot has.
        got: usize,
    },
    /// The write-ahead log append failed: the epoch is *not* durable and
    /// was not made visible to readers. The store stays on its previous
    /// epoch and remains usable; the failed epoch number is burned.
    Persistence(String),
    /// The epoch's replication record is too large for one transport
    /// frame. Raised by a cluster leader *before* the write-ahead
    /// append, so nothing was logged or made visible.
    Oversized {
        /// Encoded size of the record, bytes.
        bytes: usize,
        /// The transport's frame payload cap, bytes.
        cap: usize,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::IntegrityFailure => write!(f, "snapshot failed integrity verification"),
            PublishError::ShardMismatch { expected, got } => {
                write!(f, "snapshot has {got} shards, store serves {expected}")
            }
            PublishError::Persistence(e) => write!(f, "write-ahead log append failed: {e}"),
            PublishError::Oversized { bytes, cap } => {
                write!(
                    f,
                    "replication record of {bytes} bytes exceeds the {cap}-byte frame cap"
                )
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// What a successful publication did and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct PublishReceipt {
    /// The epoch assigned to the published snapshot.
    pub epoch: u64,
    /// Addresses in the published snapshot.
    pub addresses: u64,
    /// Time spent validating: outside the writer lock for a snapshot,
    /// inside it (apply included) for a record.
    pub validate: Duration,
    /// Time the write lock was actually held (the pointer swap).
    pub swap: Duration,
    /// Time spent making the epoch durable (zero for in-memory stores).
    pub persist: Duration,
}

/// What only a publisher touches. One mutex covers epoch allocation,
/// the append, the pointer swap and the analytics fold, so epochs are
/// served in the order they are allocated, the on-disk epoch sequence
/// is strictly monotonic even with concurrent publishers, and `current`
/// is always the log's last epoch — what the next record is a delta
/// from.
struct Writer {
    next_epoch: u64,
    /// Write-ahead epoch log; `None` for in-memory stores.
    log: Option<EpochLog>,
}

/// What a publish is handed: the next snapshot, or the record that
/// carries the served one to it.
enum Next<'a> {
    Snapshot(Snapshot),
    Delta(&'a DeltaRecord),
}

/// The concurrently readable hitlist store.
pub struct HitlistStore {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<Writer>,
    /// Streaming operators and the epoch they reflect; `None` until
    /// [`HitlistStore::enable_analytics`].
    analytics: RwLock<Option<(u64, Analytics)>>,
    shard_count: usize,
    metrics: Arc<ServeMetrics>,
}

impl HitlistStore {
    /// An empty in-memory store serving `shard_count` (power of two)
    /// shards. State does not survive a restart; see
    /// [`HitlistStore::persistent`].
    pub fn new(name: impl Into<String>, shard_count: usize) -> Self {
        Self::serving(
            Snapshot::empty(name, shard_count),
            None,
            Arc::new(ServeMetrics::default()),
        )
    }

    fn serving(snapshot: Snapshot, log: Option<EpochLog>, metrics: Arc<ServeMetrics>) -> Self {
        HitlistStore {
            shard_count: snapshot.shard_count(),
            writer: Mutex::new(Writer {
                next_epoch: snapshot.epoch() + 1,
                log,
            }),
            current: RwLock::new(Arc::new(snapshot)),
            analytics: RwLock::new(None),
            metrics,
        }
    }

    /// An empty *durable* store: every published epoch is appended and
    /// fsynced to the write-ahead log in `cfg.dir` before it becomes
    /// visible, and [`HitlistStore::recover`] can rebuild the store
    /// from that directory after a crash. Any previous store files in
    /// the directory are wiped.
    pub fn persistent(
        name: impl Into<String>,
        shard_count: usize,
        cfg: StoreConfig,
    ) -> io::Result<Self> {
        Self::persistent_with(name, shard_count, cfg, Arc::new(NoChaos))
    }

    /// [`HitlistStore::persistent`] with fault injection on the write
    /// path (`store.append.*`, `store.bitrot.*`, `store.checkpoint.*`).
    pub fn persistent_with(
        name: impl Into<String>,
        shard_count: usize,
        cfg: StoreConfig,
        chaos: Arc<dyn Chaos>,
    ) -> io::Result<Self> {
        let name = name.into();
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        let metrics = Arc::new(ServeMetrics::default());
        let log = EpochLog::create_with(
            cfg,
            &name,
            shard_count.trailing_zeros(),
            metrics.registry(),
            chaos,
        )?;
        Ok(Self::serving(
            Snapshot::empty(name, shard_count),
            Some(log),
            metrics,
        ))
    }

    /// Rebuilds a durable store from its directory: loads the newest
    /// parseable checkpoint, replays the log tail (truncating a torn
    /// tail, quarantining bit-rotted frames), verifies the rebuilt
    /// content checksum against the one recorded at publish time, and
    /// reopens the log for further publication.
    pub fn recover(cfg: StoreConfig) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_with(cfg, Arc::new(NoChaos))
    }

    /// [`HitlistStore::recover`] with fault injection on the reopened
    /// write path.
    pub fn recover_with(
        cfg: StoreConfig,
        chaos: Arc<dyn Chaos>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let metrics = Arc::new(ServeMetrics::default());
        let rec = v6store::recover_with(&cfg.dir, None, metrics.registry())?;
        let snapshot = snapshot_from_state(&rec.state);
        if snapshot.content_checksum() != rec.state.content_checksum {
            return Err(RecoverError::Io(io::Error::other(format!(
                "recovered epoch {} rebuilds to checksum {:#x}, log recorded {:#x}",
                rec.state.epoch,
                snapshot.content_checksum(),
                rec.state.content_checksum
            ))));
        }
        let log = EpochLog::resume(cfg, &rec.state, &rec.report, metrics.registry(), chaos)
            .map_err(RecoverError::Io)?;
        Ok((Self::serving(snapshot, Some(log), metrics), rec.report))
    }

    /// True when this store writes epochs through a write-ahead log.
    pub fn is_persistent(&self) -> bool {
        self.writer.lock().log.is_some()
    }

    /// Turns on streaming analytics attributing addresses through
    /// `resolver`: the operators are rebuilt from the served snapshot,
    /// shard by shard (operator state does not depend on the order
    /// entries arrive in, so nothing is flattened or sorted), and every
    /// later publish folds its epoch's record into them. Calling it
    /// again rebuilds from scratch.
    pub fn enable_analytics(&self, resolver: SharedResolver) {
        let _writer = self.writer.lock();
        let served = self.snapshot();
        let mut ops = Analytics::new(resolver);
        ops.rebuild(served.shards().iter().flat_map(|shard| shard.entries()));
        *self.analytics.write() = Some((served.epoch(), ops));
    }

    /// Reads the streaming operators together with the epoch they
    /// reflect, under one lock; `None` until
    /// [`HitlistStore::enable_analytics`].
    pub fn analytics<R>(&self, read: impl FnOnce(u64, &Analytics) -> R) -> Option<R> {
        let fed = self.analytics.read();
        let (epoch, ops) = fed.as_ref()?;
        Some(read(*epoch, ops))
    }

    /// The shared metrics counters.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The current snapshot. Readers hold no lock after this returns.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.read().clone()
    }

    /// The current publication epoch (0 until the first publish).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Validates and publishes a snapshot, assigning it the next epoch.
    ///
    /// Integrity verification runs before taking any lock; readers wait
    /// only for an `Arc` swap. Concurrent publishers are safe: each
    /// allocates, appends and swaps under the writer mutex, so every
    /// epoch a publish returns was served, and a stale publisher can
    /// never roll back a newer epoch.
    ///
    /// On a persistent store the epoch is appended and fsynced to the
    /// write-ahead log *before* the swap. A failed append returns
    /// [`PublishError::Persistence`] and leaves the store serving its
    /// previous epoch — readers can never observe an epoch that would
    /// not survive a crash.
    pub fn publish(&self, snapshot: Snapshot) -> Result<PublishReceipt, PublishError> {
        self.publish_impl(Next::Snapshot(snapshot), None)
    }

    /// [`HitlistStore::publish`] under a caller-chosen epoch number,
    /// for replicas that must stay on an externally coordinated epoch
    /// sequence (a cluster assigns epochs globally; a node that was
    /// down for epochs 5–7 publishes epoch 8 next, and its write-ahead
    /// log records the same gap every peer's does).
    ///
    /// The epoch must exceed everything this store has published —
    /// gaps are fine, rollback is not. On a persistent store a
    /// non-monotonic epoch fails the write-ahead append and returns
    /// [`PublishError::Persistence`]; on an in-memory store the swap is
    /// skipped, readers keep the newer epoch and the analytics do not
    /// move.
    pub fn publish_as(
        &self,
        snapshot: Snapshot,
        epoch: u64,
    ) -> Result<PublishReceipt, PublishError> {
        self.publish_impl(Next::Snapshot(snapshot), Some(epoch))
    }

    /// Publishes the epoch a publisher holds as a record: under the
    /// writer mutex the served snapshot is carried forward through
    /// `delta` ([`Snapshot::apply_delta`]) and the result is published
    /// as `delta.epoch`, with `delta` itself what the write-ahead log
    /// appends and the analytics fold — nothing is flattened or
    /// re-diffed. Epoch numbers behave as in
    /// [`HitlistStore::publish_as`].
    ///
    /// A record that does not carry the served snapshot to its own
    /// content checksum (built on another base, or forged) is refused
    /// with [`PublishError::IntegrityFailure`] before anything is
    /// logged, and the store stays where it was.
    pub fn publish_delta(&self, delta: &DeltaRecord) -> Result<PublishReceipt, PublishError> {
        self.publish_impl(Next::Delta(delta), Some(delta.epoch))
    }

    fn publish_impl(
        &self,
        next: Next<'_>,
        explicit: Option<u64>,
    ) -> Result<PublishReceipt, PublishError> {
        let t0 = Instant::now();
        // Whatever is being served passed `verify_since` when it was
        // published, so shards shared with it need no second walk.
        let (mut writer, served, mut snapshot, delta) = match next {
            Next::Snapshot(snapshot) => {
                if snapshot.shard_count() != self.shard_count {
                    return Err(PublishError::ShardMismatch {
                        expected: self.shard_count,
                        got: snapshot.shard_count(),
                    });
                }
                if !snapshot.verify_since(&self.snapshot()) {
                    return Err(PublishError::IntegrityFailure);
                }
                // Held until the swap and the fold are done: see `Writer`.
                let writer = self.writer.lock();
                (writer, self.snapshot(), snapshot, None)
            }
            Next::Delta(delta) => {
                // Applied under the lock, so the base is what is served.
                let writer = self.writer.lock();
                let served = self.snapshot();
                let snapshot = served
                    .apply_delta(delta)
                    .filter(|next| next.verify_since(&served))
                    .ok_or(PublishError::IntegrityFailure)?;
                (writer, served, snapshot, Some(delta))
            }
        };
        let validate = t0.elapsed();
        let epoch = match explicit {
            // An explicit epoch reserves itself in the allocator so later
            // auto-assigned epochs continue past it.
            Some(e) => {
                writer.next_epoch = writer.next_epoch.max(e + 1);
                e
            }
            None => {
                writer.next_epoch += 1;
                writer.next_epoch - 1
            }
        };
        let feeds = self.analytics.read().is_some();

        let tp = Instant::now();
        let derived;
        let record = match delta {
            Some(delta) => Some(delta),
            None if writer.log.is_some() || feeds => {
                derived = delta_between(&served, &snapshot, epoch);
                Some(&derived)
            }
            None => None,
        };
        let mut persist = Duration::ZERO;
        if let (Some(log), Some(record)) = (writer.log.as_mut(), record) {
            log.append_delta(record, || flatten_snapshot(&snapshot))
                .map_err(|e| PublishError::Persistence(e.to_string()))?;
            persist = tp.elapsed();
        }
        snapshot.epoch = epoch;
        let addresses = snapshot.len();
        let degraded = snapshot.is_degraded();
        let arc = Arc::new(snapshot);

        // A stale explicit epoch is not served and advances nothing.
        let advances = served.epoch() < epoch;
        // Swapped and folded under the analytics lock: whoever reads the
        // served snapshot while holding it sees the operators' epoch.
        let mut fed = (advances && feeds).then(|| self.analytics.write());
        let t1 = Instant::now();
        if advances {
            *self.current.write() = arc;
        }
        let swap = t1.elapsed();
        if let (Some((at, ops)), Some(record)) =
            (fed.as_deref_mut().and_then(Option::as_mut), record)
        {
            ops.apply_delta(record, |bits| served.first_week(Ipv6Addr::from(bits)));
            *at = epoch;
        }
        drop(fed);
        drop(writer);
        self.metrics.record_publish();
        {
            // Export the published epoch's memory footprint: raw is what
            // the old Vec<u128>+Vec<u32> columns would cost, compressed
            // is what the tiered representation actually holds.
            let current = self.current.read();
            self.metrics
                .set_store_bytes(current.raw_bytes(), current.stored_bytes());
        }
        if degraded {
            self.metrics.record_degraded_publish();
        }
        Ok(PublishReceipt {
            epoch,
            addresses,
            validate,
            swap,
            persist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotBuilder;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn publish_swaps_epochs() {
        let store = HitlistStore::new("svc", 4);
        assert_eq!(store.epoch(), 0);
        assert!(store.snapshot().is_empty());

        let mut b = SnapshotBuilder::new("svc", 4);
        b.add_address(addr("2001:db8::1"), 0);
        let receipt = store.publish(b.build()).unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.addresses, 1);
        assert_eq!(store.epoch(), 1);
        assert!(store.snapshot().contains(addr("2001:db8::1")));
        assert_eq!(store.metrics().publishes(), 1);
    }

    #[test]
    fn old_readers_keep_their_snapshot() {
        let store = HitlistStore::new("svc", 1);
        let mut b = SnapshotBuilder::new("svc", 1);
        b.add_address(addr("2001:db8::1"), 0);
        store.publish(b.build()).unwrap();

        let held = store.snapshot();
        let mut b = SnapshotBuilder::new("svc", 1);
        b.add_address(addr("2001:db8::2"), 1);
        store.publish(b.build()).unwrap();

        // The old epoch stays fully usable after the swap.
        assert_eq!(held.epoch(), 1);
        assert!(held.contains(addr("2001:db8::1")));
        assert!(!held.contains(addr("2001:db8::2")));
        assert!(store.snapshot().contains(addr("2001:db8::2")));
    }

    #[test]
    fn publish_as_keeps_an_external_epoch_sequence() {
        let store = HitlistStore::new("svc", 2);
        let mut b = SnapshotBuilder::new("svc", 2);
        b.add_address(addr("2001:db8::1"), 0);
        let receipt = store.publish_as(b.build(), 5).unwrap();
        assert_eq!(receipt.epoch, 5);
        assert_eq!(store.epoch(), 5);

        // Auto allocation continues past the reserved epoch.
        let mut b = SnapshotBuilder::new("svc", 2);
        b.add_address(addr("2001:db8::2"), 1);
        assert_eq!(store.publish(b.build()).unwrap().epoch, 6);

        // A stale explicit epoch can never roll visible state back.
        let mut b = SnapshotBuilder::new("svc", 2);
        b.add_address(addr("2001:db8::3"), 2);
        store.publish_as(b.build(), 3).unwrap();
        assert_eq!(store.epoch(), 6);
        assert!(!store.snapshot().contains(addr("2001:db8::3")));
    }

    #[test]
    fn rejects_wrong_shard_count_and_corruption() {
        let store = HitlistStore::new("svc", 4);
        let b = SnapshotBuilder::new("svc", 2);
        assert!(matches!(
            store.publish(b.build()),
            Err(PublishError::ShardMismatch {
                expected: 4,
                got: 2
            })
        ));

        let mut b = SnapshotBuilder::new("svc", 4);
        b.add_address(addr("2001:db8::1"), 0);
        let mut snap = b.build();
        snap.total += 1; // corrupt
        assert!(matches!(
            store.publish(snap),
            Err(PublishError::IntegrityFailure)
        ));
    }
}
