//! Startup recovery: rebuild the last durable epoch from a store
//! directory.
//!
//! Recovery is **read-only** — it never modifies the directory, so it
//! can be run repeatedly (and used for time-travel inspection via
//! [`recover_at`]) without destroying forensic state. The physical
//! truncation of a torn or quarantined log tail happens only when the
//! store is reopened for writing ([`crate::EpochLog::resume`]), using
//! the `log_good_len` this module reports.
//!
//! # Algorithm
//!
//! 1. List `checkpoint-*.v6ck` files, newest epoch first. The first one
//!    that parses (header, frame checksum, payload decode) becomes the
//!    base state; corrupt ones are counted and skipped — an older
//!    checkpoint plus the intact log is always a consistent fallback.
//!    With no usable checkpoint the base is the empty epoch-0 state.
//! 2. Validate the log header and meta frame, then replay delta frames
//!    in order. Deltas at or below the base epoch are skipped (they are
//!    already compacted into the checkpoint); later deltas apply
//!    remove-then-upsert.
//! 3. Stop at the first bad frame. An incomplete frame is a **torn
//!    tail** (interrupted write): everything past the last valid frame
//!    is reported for truncation. A complete frame with a checksum
//!    mismatch is **bit rot**: the frame is quarantined and replay
//!    stops there too — deltas after a lost delta cannot be applied
//!    soundly, so the recovered state is always *some previously
//!    published epoch*, never a gap-jumping invention.

use std::fmt;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use v6obs::Registry;

use crate::format::{self, FrameOutcome, HEADER_LEN, KIND_LOG};
use crate::log::{
    apply_delta, decode_delta, decode_meta, parse_checkpoint_bytes, parse_checkpoint_name,
    EpochState, LOG_FILE,
};

/// Truncate-and-report: what recovery found and what reopening the log
/// for writing will physically drop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint used as the replay base, if any.
    pub checkpoint_epoch: Option<u64>,
    /// Newer checkpoint files that failed validation and were skipped.
    pub corrupt_checkpoints: u32,
    /// Delta frames applied on top of the base state.
    pub replayed: u64,
    /// Valid delta frames skipped (already compacted into the base, or
    /// past a [`recover_at`] target epoch).
    pub skipped: u64,
    /// Bytes past the last valid frame that reopening will truncate
    /// (torn tail and/or quarantined frames and anything after them).
    pub truncated_bytes: u64,
    /// Frames whose checksum failed (bit rot) — quarantined, not
    /// replayed; replay stops at the first one.
    pub quarantined: u32,
    /// Log offset up to which frames are valid; the reopen truncation
    /// point.
    pub log_good_len: u64,
    /// The epoch the recovered state reflects (0 = empty store).
    pub recovered_epoch: u64,
    /// Wall time recovery took.
    pub wall: Duration,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered epoch {} (ckpt {}, replayed {}, skipped {}, truncated {} B, quarantined {})",
            self.recovered_epoch,
            self.checkpoint_epoch
                .map_or_else(|| "-".to_string(), |e| e.to_string()),
            self.replayed,
            self.skipped,
            self.truncated_bytes,
            self.quarantined,
        )
    }
}

/// A recovered store: the reconstructed state plus the report.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The last durable epoch's full content.
    pub state: EpochState,
    /// What recovery found on the way.
    pub report: RecoveryReport,
}

/// Why a store directory could not be recovered.
#[derive(Debug)]
pub enum RecoverError {
    /// The directory holds neither a usable log nor any checkpoint.
    NoStore(std::path::PathBuf),
    /// Filesystem error while reading store files.
    Io(io::Error),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::NoStore(dir) => {
                write!(f, "no v6store files in {}", dir.display())
            }
            RecoverError::Io(e) => write!(f, "store I/O error: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// Recovers the newest durable epoch from `dir`, recording metrics into
/// the global registry.
pub fn recover(dir: &Path) -> Result<Recovery, RecoverError> {
    recover_with(dir, None, v6obs::global())
}

/// Time-travel recovery: reconstructs the state as of `epoch` (the
/// newest durable epoch ≤ `epoch`), provided a checkpoint at or below
/// it — or the un-compacted log — still covers it.
pub fn recover_at(dir: &Path, epoch: u64) -> Result<Recovery, RecoverError> {
    recover_with(dir, Some(epoch), v6obs::global())
}

/// [`recover`] with an optional target epoch and an explicit metrics
/// registry (`store.recover.*`).
pub fn recover_with(
    dir: &Path,
    up_to_epoch: Option<u64>,
    registry: &Registry,
) -> Result<Recovery, RecoverError> {
    let started = Instant::now();
    let target = up_to_epoch.unwrap_or(u64::MAX);
    let mut report = RecoveryReport::default();

    // 1. Newest parseable checkpoint at or below the target epoch.
    let mut checkpoints: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(dir)
        .map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                RecoverError::NoStore(dir.to_path_buf())
            } else {
                RecoverError::Io(e)
            }
        })?
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name();
            let epoch = parse_checkpoint_name(&name.to_string_lossy())?;
            (epoch <= target).then(|| (epoch, e.path()))
        })
        .collect();
    checkpoints.sort_by_key(|c| std::cmp::Reverse(c.0));
    let any_checkpoint = !checkpoints.is_empty();

    let mut state = EpochState::default();
    for (epoch, path) in checkpoints {
        match std::fs::read(&path) {
            Ok(bytes) => match parse_checkpoint_bytes(&bytes) {
                Some(parsed) => {
                    report.checkpoint_epoch = Some(epoch);
                    state = parsed;
                    break;
                }
                None => report.corrupt_checkpoints += 1,
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(RecoverError::Io(e)),
        }
    }

    // 2. Replay the log tail on top.
    let log_path = dir.join(LOG_FILE);
    let log_bytes = match std::fs::read(&log_path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            if !any_checkpoint {
                return Err(RecoverError::NoStore(dir.to_path_buf()));
            }
            Vec::new()
        }
        Err(e) => return Err(RecoverError::Io(e)),
    };
    if !log_bytes.is_empty() {
        replay_log(&log_bytes, target, &mut state, &mut report);
    }

    report.recovered_epoch = state.epoch;
    report.wall = started.elapsed();
    registry
        .counter("store.recover.replayed")
        .add(report.replayed);
    registry
        .counter("store.recover.truncated")
        .add(report.truncated_bytes);
    registry
        .counter("store.recover.quarantined")
        .add(u64::from(report.quarantined));
    registry
        .histogram("store.recover.latency")
        .record_duration(report.wall);
    Ok(Recovery { state, report })
}

/// Scans the log bytes, applying valid deltas at or below `target` and
/// filling in the truncate-and-report fields. Never panics on corrupt
/// input: every malformed byte pattern maps to truncation or
/// quarantine.
fn replay_log(bytes: &[u8], target: u64, state: &mut EpochState, report: &mut RecoveryReport) {
    let total = bytes.len() as u64;
    // A log whose header or meta frame is unusable contributes nothing;
    // reopening rewrites the prelude from scratch (good_len 0).
    let quarantine_all = |report: &mut RecoveryReport, rotten: bool| {
        report.log_good_len = 0;
        report.truncated_bytes = total;
        if rotten {
            report.quarantined += 1;
        }
    };
    if format::parse_header(bytes) != Some(KIND_LOG) {
        quarantine_all(report, false);
        return;
    }
    let mut pos = HEADER_LEN;
    match format::read_frame(&bytes[pos..]) {
        FrameOutcome::Valid { payload, consumed } => match decode_meta(payload) {
            Some((name, shard_bits)) => {
                if report.checkpoint_epoch.is_none() {
                    state.name = name;
                    state.shard_bits = shard_bits;
                }
                pos += consumed;
            }
            None => {
                quarantine_all(report, true);
                return;
            }
        },
        FrameOutcome::Torn => {
            quarantine_all(report, false);
            return;
        }
        FrameOutcome::BitRot { .. } => {
            quarantine_all(report, true);
            return;
        }
    }

    loop {
        if pos == bytes.len() {
            break; // clean end of log
        }
        match format::read_frame(&bytes[pos..]) {
            FrameOutcome::Valid { payload, consumed } => match decode_delta(payload) {
                Some(delta) => {
                    if delta.epoch <= state.epoch || delta.epoch > target {
                        report.skipped += 1;
                    } else {
                        apply_delta(state, &delta);
                        report.replayed += 1;
                    }
                    pos += consumed;
                }
                None => {
                    // Checksum held but the payload is not a delta:
                    // structurally corrupt. Quarantine and stop.
                    report.quarantined += 1;
                    break;
                }
            },
            FrameOutcome::Torn => break,
            FrameOutcome::BitRot { .. } => {
                report.quarantined += 1;
                break;
            }
        }
    }
    report.log_good_len = pos as u64;
    report.truncated_bytes = total - pos as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::publish;
    use crate::log::{scratch_dir, EpochLog, StoreConfig};

    /// A fresh `"svc"` store and the epoch-0 mirror of its content.
    fn create(cfg: StoreConfig, shard_bits: u32) -> (EpochLog, EpochState) {
        let log = EpochLog::create(cfg, "svc", shard_bits).unwrap();
        let mirror = EpochState {
            name: "svc".into(),
            shard_bits,
            ..EpochState::default()
        };
        (log, mirror)
    }

    #[test]
    fn recover_empty_dir_is_no_store() {
        let dir = scratch_dir("rec-empty");
        assert!(matches!(recover(&dir), Err(RecoverError::NoStore(_))));
        assert!(matches!(
            recover(Path::new("/nonexistent/v6store")),
            Err(RecoverError::NoStore(_))
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recover_replays_log_exactly() {
        let dir = scratch_dir("rec-replay");
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let (mut log, mut mirror) = create(cfg, 3);
        let mut entries: Vec<(u128, u32)> = Vec::new();
        for e in 1..=5u64 {
            entries.push((u128::from(e) << 24, e as u32));
            publish(&mut log, &mut mirror, e, &entries).unwrap();
        }
        let expected = mirror.clone();
        drop(log);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.state, expected);
        assert_eq!(rec.report.replayed, 5);
        assert_eq!(rec.report.skipped, 0);
        assert_eq!(rec.report.truncated_bytes, 0);
        assert_eq!(rec.report.quarantined, 0);
        assert_eq!(rec.report.checkpoint_epoch, None);
        assert_eq!(rec.report.recovered_epoch, 5);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recover_uses_checkpoint_and_tail() {
        let dir = scratch_dir("rec-ckpt");
        let cfg = StoreConfig::new(&dir).checkpoint_every(3).with_fsync(false);
        let (mut log, mut mirror) = create(cfg, 2);
        let mut entries: Vec<(u128, u32)> = Vec::new();
        for e in 1..=5u64 {
            entries.push((u128::from(e) << 24, e as u32));
            publish(&mut log, &mut mirror, e, &entries).unwrap();
        }
        let expected = mirror.clone();
        drop(log);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.state, expected);
        assert_eq!(rec.report.checkpoint_epoch, Some(3));
        assert_eq!(rec.report.replayed, 2); // epochs 4, 5 from the log
        assert_eq!(rec.state.name, "svc");
        assert_eq!(rec.state.shard_bits, 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recover_at_time_travels() {
        let dir = scratch_dir("rec-at");
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let (mut log, mut mirror) = create(cfg, 0);
        let mut checksums = vec![0u64]; // epoch 0 = empty
        let mut entries: Vec<(u128, u32)> = Vec::new();
        for e in 1..=6u64 {
            entries.push((u128::from(e), 0));
            publish(&mut log, &mut mirror, e, &entries).unwrap();
            checksums.push(mirror.content_checksum);
        }
        drop(log);
        for (epoch, &sum) in checksums.iter().enumerate() {
            let rec = recover_at(&dir, epoch as u64).unwrap();
            assert_eq!(rec.state.epoch, epoch as u64);
            assert_eq!(rec.state.content_checksum, sum, "epoch {epoch}");
            assert_eq!(rec.state.entries.len(), epoch);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_truncate_and_report() {
        let dir = scratch_dir("rec-torn");
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let (mut log, mut mirror) = create(cfg.clone(), 0);
        publish(&mut log, &mut mirror, 1, &[(7, 0)]).unwrap();
        let good = mirror.clone();
        drop(log);
        // Simulate a crash mid-append: append 9 garbage bytes.
        let path = cfg.log_path();
        let full = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 9]);
        std::fs::write(&path, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.state, good);
        assert_eq!(rec.report.truncated_bytes, 9);
        assert_eq!(rec.report.log_good_len, full);
        assert_eq!(rec.report.quarantined, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bit_rot_quarantines_and_stops() {
        let dir = scratch_dir("rec-rot");
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let (mut log, mut mirror) = create(cfg.clone(), 0);
        publish(&mut log, &mut mirror, 1, &[(7, 0)]).unwrap();
        let len_after_1 = std::fs::metadata(cfg.log_path()).unwrap().len();
        let good = mirror.clone();
        publish(&mut log, &mut mirror, 2, &[(7, 0), (9, 1)]).unwrap();
        drop(log);
        // Flip a bit inside epoch 2's frame payload.
        let path = cfg.log_path();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = len_after_1 as usize + 10;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        // Replay stopped before the rotten epoch 2: state is epoch 1.
        assert_eq!(rec.state, good);
        assert_eq!(rec.report.quarantined, 1);
        assert_eq!(rec.report.log_good_len, len_after_1);
        assert_eq!(rec.report.truncated_bytes, bytes.len() as u64 - len_after_1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back() {
        let dir = scratch_dir("rec-fallback");
        let cfg = StoreConfig::new(&dir).checkpoint_every(2).with_fsync(false);
        let (mut log, mut mirror) = create(cfg, 0);
        let mut entries: Vec<(u128, u32)> = Vec::new();
        for e in 1..=4u64 {
            entries.push((u128::from(e), 0));
            publish(&mut log, &mut mirror, e, &entries).unwrap();
        }
        drop(log);
        // Corrupt the newest checkpoint (epoch 4); epoch-2 remains, but
        // the post-4 log reset means only epoch 2 is recoverable.
        let newest = dir.join(crate::log::checkpoint_file(4));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.corrupt_checkpoints, 1);
        assert_eq!(rec.report.checkpoint_epoch, Some(2));
        assert_eq!(rec.state.epoch, 2);
        assert_eq!(rec.state.entries.len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn resume_after_recovery_continues_the_log() {
        let dir = scratch_dir("rec-resume");
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let (mut log, mut mirror) = create(cfg.clone(), 1);
        publish(&mut log, &mut mirror, 1, &[(3, 0)]).unwrap();
        drop(log);
        // Torn tail on disk.
        let path = cfg.log_path();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x11; 5]);
        std::fs::write(&path, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        let mut mirror = rec.state.clone();
        let mut log = EpochLog::resume(
            cfg.clone(),
            &mirror,
            &rec.report,
            v6obs::global(),
            std::sync::Arc::new(v6chaos::NoChaos),
        )
        .unwrap();
        // The torn bytes are physically gone.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            rec.report.log_good_len
        );
        publish(&mut log, &mut mirror, 2, &[(3, 0), (4, 1)]).unwrap();
        drop(log);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.state.epoch, 2);
        assert_eq!(rec.state.entries, vec![(3, 0), (4, 1)]);
        assert_eq!(rec.report.truncated_bytes, 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
