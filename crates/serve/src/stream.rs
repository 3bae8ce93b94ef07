//! Serving-side streaming analytics: a [`v6stream::StreamDriver`]
//! kept current alongside a [`HitlistStore`], answering windowed
//! queries no snapshot can.
//!
//! A snapshot is a point-in-time corpus: it can answer `new_since`
//! (the week column survives) but not "which devices *moved* between
//! windows" or "how did an AS's address entropy shift" — those need
//! history folded as it streamed past. [`StreamAnalytics`] owns that
//! fold. Deltas arrive from whichever stream the deployment has:
//!
//! * a persistent store's epoch log, tailed in place
//!   ([`StreamAnalytics::tail_log`] + [`StreamAnalytics::poll`]);
//! * deltas handed over one at a time ([`StreamAnalytics::feed`]);
//! * a full resync from any materialized [`Snapshot`]
//!   ([`StreamAnalytics::resync_from`]) — the recovery path after a
//!   replay gap, and the bootstrap path for in-memory stores.
//!
//! A cluster replica does not go through here: it holds the pre-delta
//! snapshot of every delta it applies, so it feeds a bare
//! [`v6stream::Analytics`] from that (`v6cluster`'s `Node`) and needs
//! neither the driver's corpus map nor its verification.
//!
//! All query answers carry the epoch they reflect; when the driver is
//! lagging after a detected gap, queries keep answering from the last
//! verified epoch and [`StreamAnalytics::is_lagging`] says so — the
//! same degraded-but-honest posture quarantined shards take.

use std::io;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use v6store::{DeltaRecord, LogTailer};
use v6stream::{
    DensityReport, DeviceReport, Move, Offer, RotationRow, SharedResolver, StreamDriver,
};

use crate::persist::flatten_snapshot;
use crate::snapshot::Snapshot;

#[allow(unused_imports)] // doc links
use crate::store::HitlistStore;

struct Inner {
    driver: StreamDriver,
    tailer: Option<LogTailer>,
}

/// Incremental analytics over a store's epoch stream.
///
/// Cheap to share (`Arc`); all methods lock internally. Attach one to
/// a [`crate::QueryEngine`] with
/// [`crate::QueryEngine::with_analytics`] to expose the windowed
/// query shapes (`moved_between`, `entropy_shift`) next to the
/// snapshot queries.
pub struct StreamAnalytics {
    inner: Mutex<Inner>,
}

impl StreamAnalytics {
    /// Empty analytics attributing addresses through `resolver`.
    pub fn new(resolver: SharedResolver) -> StreamAnalytics {
        StreamAnalytics {
            inner: Mutex::new(Inner {
                driver: StreamDriver::new(resolver),
                tailer: None,
            }),
        }
    }

    /// Attaches a read-only tailer on a persistent store's epoch log
    /// directory; [`StreamAnalytics::poll`] then drains newly appended
    /// deltas.
    pub fn tail_log(self, dir: impl AsRef<Path>) -> StreamAnalytics {
        self.inner.lock().tailer = Some(LogTailer::new(dir));
        self
    }

    /// Feeds one delta (a cluster push, a tailed frame) through the
    /// driver's verification.
    pub fn feed(&self, delta: &DeltaRecord) -> Offer {
        self.inner.lock().driver.feed(delta)
    }

    /// Polls the attached log tailer and feeds everything it delivers.
    /// Empty when no tailer is attached.
    pub fn poll(&self) -> io::Result<Vec<Offer>> {
        let mut inner = self.inner.lock();
        let Some(mut tailer) = inner.tailer.take() else {
            return Ok(Vec::new());
        };
        let result = inner.driver.poll_log(&mut tailer);
        inner.tailer = Some(tailer);
        result.map(|(offers, _)| offers)
    }

    /// Rebuilds the operators from a materialized snapshot — gap
    /// recovery and in-memory bootstrap. O(corpus), explicitly.
    pub fn resync_from(&self, snap: &Snapshot) {
        let (entries, _aliases) = flatten_snapshot(snap);
        self.inner
            .lock()
            .driver
            .resync(snap.epoch(), snap.week(), &entries);
    }

    /// The epoch the operators currently reflect.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().driver.epoch()
    }

    /// True when a replay gap was detected and a
    /// [`StreamAnalytics::resync_from`] is needed; answers meanwhile
    /// reflect the last verified epoch.
    pub fn is_lagging(&self) -> bool {
        self.inner.lock().driver.is_lagging()
    }

    /// The maintained corpus content checksum (equals
    /// [`Snapshot::content_checksum`] of the reflected epoch).
    pub fn content_checksum(&self) -> u64 {
        self.inner.lock().driver.content_checksum()
    }

    /// `(operator name, checksum)` for every operator — the
    /// streaming ≡ batch equivalence witness.
    pub fn checksums(&self) -> [(&'static str, u64); 4] {
        self.inner.lock().driver.analytics().checksums()
    }

    /// Devices that inhabited a /64 at or before week `w0` and first
    /// appeared in a different /64 during `(w0, w1]`.
    pub fn moved_between(&self, w0: u32, w1: u32) -> Vec<Move> {
        self.inner
            .lock()
            .driver
            .analytics()
            .devices
            .moved_between(w0, w1)
    }

    /// Entropy-distribution shift (total-variation, per-mille) of
    /// `as_index` between the corpus as of `w0` and the additions of
    /// `(w0, w1]`; `None` when either side is empty.
    pub fn entropy_shift(&self, as_index: u16, w0: u32, w1: u32) -> Option<u32> {
        self.inner
            .lock()
            .driver
            .analytics()
            .entropy
            .shift(as_index, w0, w1)
    }

    /// Per-/48 density snapshot with up to `top` densest networks.
    pub fn density(&self, top: usize) -> DensityReport {
        self.inner.lock().driver.analytics().density.snapshot(top)
    }

    /// EUI-64 device census with track-class counts.
    pub fn devices(&self) -> DeviceReport {
        self.inner.lock().driver.analytics().devices.snapshot()
    }

    /// Per-AS rotation period estimates.
    pub fn rotation(&self) -> Vec<RotationRow> {
        self.inner.lock().driver.analytics().rotation().snapshot()
    }
}

/// Shorthand: analytics bootstrapped from a store's current snapshot.
pub fn analytics_for(store: &HitlistStore, resolver: SharedResolver) -> Arc<StreamAnalytics> {
    let analytics = StreamAnalytics::new(resolver);
    analytics.resync_from(&store.snapshot());
    Arc::new(analytics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotBuilder;
    use crate::store::HitlistStore;
    use v6stream::{Analytics, PrefixAsTable};

    fn resolver() -> SharedResolver {
        Arc::new(PrefixAsTable::new(Vec::new()))
    }

    #[test]
    fn resync_matches_batch_and_checksum() {
        let store = HitlistStore::new("svc", 4);
        let mut b = SnapshotBuilder::new("svc", 4);
        for i in 0..50u32 {
            b.add_bits(
                (0x2001_0db8u128 << 96) | (u128::from(i % 7) << 80) | u128::from(i),
                i % 4,
            );
        }
        store.publish(b.build()).unwrap();

        let analytics = analytics_for(&store, resolver());
        let snap = store.snapshot();
        assert_eq!(analytics.epoch(), snap.epoch());
        assert_eq!(analytics.content_checksum(), snap.content_checksum());

        let (entries, _) = flatten_snapshot(&snap);
        let batch = Analytics::from_entries(resolver(), &entries);
        assert_eq!(analytics.checksums(), batch.checksums());
        assert_eq!(analytics.density(4).addresses, snap.len());
    }

    #[test]
    fn tailing_a_persistent_store_tracks_epochs() {
        let dir = v6store::scratch_dir("serve_stream_tail");
        let store =
            HitlistStore::persistent("svc", 2, v6store::StoreConfig::new(&dir).with_fsync(false))
                .unwrap();
        let analytics = StreamAnalytics::new(resolver()).tail_log(&dir);

        for week in 1..=3u32 {
            let mut b = SnapshotBuilder::new("svc", 2);
            for w in 1..=week {
                b.add_bits((0x2001_0db8u128 << 96) | u128::from(w), w);
            }
            store.publish(b.build()).unwrap();
            let offers = analytics.poll().unwrap();
            assert_eq!(offers, vec![Offer::Applied(1)]);
        }
        let snap = store.snapshot();
        assert_eq!(analytics.epoch(), snap.epoch());
        assert_eq!(analytics.content_checksum(), snap.content_checksum());
        std::fs::remove_dir_all(&dir).ok();
    }
}
