//! Tailing the epoch log: the delta-consumption API behind streaming
//! analytics.
//!
//! A [`LogTailer`] follows a store directory's `epochs.v6log` and
//! yields every [`DeltaRecord`] appended since the previous poll, in
//! append order. It is strictly read-only (like [`crate::recover()`])
//! and tolerant of concurrent writers:
//!
//! * a **torn tail** (an append in progress, or a crash mid-frame)
//!   simply ends the poll — the frame is re-examined next time;
//! * a **bit-rotten frame** ends the poll permanently at that offset
//!   (the bad frame is counted once and never delivered — the writer's
//!   own recovery path will truncate it);
//! * a **log reset** (the writer compacted into a checkpoint and
//!   restarted the log) is detected by the file shrinking below the
//!   tailer's offset; the tailer rescans from the top, and the
//!   monotonic epoch filter keeps already-delivered deltas from being
//!   re-emitted.
//!
//! The tailer does not detect gaps (a delta lost to compaction before it
//! was polled, or bit rot ahead of the cursor). No consumer in the
//! workspace tails the log yet; one that does must verify the chain
//! itself — [`DeltaRecord::content_checksum`] makes a lost predecessor
//! visible to anyone mirroring the state — and resync from
//! [`crate::recover()`].

use std::io;
use std::path::{Path, PathBuf};

use crate::format::{self, FrameOutcome, HEADER_LEN, KIND_LOG};
use crate::log::{decode_delta, DeltaRecord, LOG_FILE};

/// What one [`LogTailer::poll`] found, beyond the records themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TailReport {
    /// Delta frames decoded and returned.
    pub delivered: u64,
    /// Valid frames skipped because their epoch was at or below the
    /// tailer's high-water mark (re-scan after a log reset).
    pub skipped: u64,
    /// True when the log file shrank and the tailer rescanned from the
    /// top (checkpoint compaction reset the log).
    pub reset: bool,
    /// Frames whose checksum failed (bit rot); the tailer stops in
    /// front of the first one and will not advance past it.
    pub quarantined: u32,
}

/// A read-only cursor over a store directory's epoch log.
///
/// ```
/// use v6store::{DeltaRecord, EpochLog, LogTailer, StoreConfig};
///
/// let dir = v6store::scratch_dir("tail-doc");
/// let cfg = StoreConfig::new(&dir).with_fsync(false);
/// let mut log = EpochLog::create(cfg, "doc", 1).unwrap();
/// let mut tail = LogTailer::new(&dir);
/// let record = DeltaRecord {
///     epoch: 1,
///     week: 0,
///     content_checksum: 7,
///     missing_shards: vec![],
///     removed: vec![],
///     added: vec![(42, 0)],
///     removed_aliases: vec![],
///     added_aliases: vec![],
/// };
/// log.append_delta(&record, || (vec![(42, 0)], vec![])).unwrap();
/// let (records, _) = tail.poll().unwrap();
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].epoch, 1);
/// let (records, _) = tail.poll().unwrap(); // nothing new
/// assert!(records.is_empty());
/// std::fs::remove_dir_all(dir).ok();
/// ```
#[derive(Debug)]
pub struct LogTailer {
    path: PathBuf,
    /// Byte offset of the next unread frame.
    pos: usize,
    /// Highest epoch delivered so far; re-scanned frames at or below
    /// this are suppressed.
    last_epoch: u64,
    /// Set when a bit-rotten frame pinned the cursor: the tailer
    /// refuses to advance until the file is reset or truncated under
    /// it (the writer's recovery path does exactly that).
    pinned: bool,
}

impl LogTailer {
    /// A tailer at the start of `dir`'s log. The directory (and the
    /// log) need not exist yet; polls simply return nothing until the
    /// writer creates it.
    pub fn new(dir: impl AsRef<Path>) -> LogTailer {
        LogTailer {
            path: dir.as_ref().join(LOG_FILE),
            pos: 0,
            last_epoch: 0,
            pinned: false,
        }
    }

    /// Epoch of the last delivered delta (0 before the first).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Reads every delta appended since the previous poll.
    pub fn poll(&mut self) -> io::Result<(Vec<DeltaRecord>, TailReport)> {
        let mut report = TailReport::default();
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), report)),
            Err(e) => return Err(e),
        };
        if bytes.len() < self.pos {
            // Checkpoint compaction reset the log: rescan, relying on
            // the epoch high-water mark to suppress re-delivery.
            self.pos = 0;
            self.pinned = false;
            report.reset = true;
        }
        if self.pinned {
            return Ok((Vec::new(), report));
        }
        if self.pos == 0 {
            // Validate the prelude (header + meta frame) before the
            // first delta. An incomplete prelude ends the poll; the
            // writer is still setting the file up.
            if format::parse_header(&bytes) != Some(KIND_LOG) {
                return Ok((Vec::new(), report));
            }
            match format::read_frame(&bytes[HEADER_LEN..]) {
                FrameOutcome::Valid { consumed, .. } => self.pos = HEADER_LEN + consumed,
                FrameOutcome::Torn => return Ok((Vec::new(), report)),
                FrameOutcome::BitRot { .. } => {
                    report.quarantined += 1;
                    self.pinned = true;
                    return Ok((Vec::new(), report));
                }
            }
        }
        let mut out = Vec::new();
        while self.pos < bytes.len() {
            match format::read_frame(&bytes[self.pos..]) {
                FrameOutcome::Valid { payload, consumed } => match decode_delta(payload) {
                    Some(record) => {
                        if record.epoch > self.last_epoch {
                            self.last_epoch = record.epoch;
                            report.delivered += 1;
                            out.push(record);
                        } else {
                            report.skipped += 1;
                        }
                        self.pos += consumed;
                    }
                    None => {
                        // Checksum held but the payload is not a
                        // delta: structurally corrupt. Pin here.
                        report.quarantined += 1;
                        self.pinned = true;
                        break;
                    }
                },
                FrameOutcome::Torn => break, // append in progress
                FrameOutcome::BitRot { .. } => {
                    report.quarantined += 1;
                    self.pinned = true;
                    break;
                }
            }
        }
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::publish;
    use crate::log::{scratch_dir, EpochLog, EpochState, StoreConfig};

    #[test]
    fn tails_appends_incrementally() {
        let dir = scratch_dir("tail-incr");
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let mut log = EpochLog::create(cfg, "svc", 1).unwrap();
        let mut mirror = EpochState::default();
        let mut tail = LogTailer::new(&dir);
        let mut entries: Vec<(u128, u32)> = Vec::new();
        for e in 1..=3u64 {
            entries.push((u128::from(e) << 16, e as u32));
            publish(&mut log, &mut mirror, e, &entries).unwrap();
            let (records, report) = tail.poll().unwrap();
            assert_eq!(records.len(), 1, "epoch {e}");
            assert_eq!(records[0].epoch, e);
            assert_eq!(report.delivered, 1);
        }
        let (records, _) = tail.poll().unwrap();
        assert!(records.is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_then_created_log() {
        let dir = scratch_dir("tail-missing");
        let mut tail = LogTailer::new(&dir);
        let (records, _) = tail.poll().unwrap();
        assert!(records.is_empty());
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let mut log = EpochLog::create(cfg, "svc", 0).unwrap();
        let mut mirror = EpochState::default();
        publish(&mut log, &mut mirror, 1, &[(9, 0)]).unwrap();
        let (records, _) = tail.poll().unwrap();
        assert_eq!(records.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn log_reset_rescans_without_redelivery() {
        let dir = scratch_dir("tail-reset");
        // Checkpoint every 2 epochs: the log resets mid-run, and the
        // checkpointed epochs' frames are compacted away *before* the
        // tailer polls them. Those epochs are genuine replay gaps —
        // never re-delivered, never delivered twice — and the consumer
        // is expected to detect them via the delta chain's content
        // checksums and resync from a recovered state.
        let cfg = StoreConfig::new(&dir).checkpoint_every(2).with_fsync(false);
        let mut log = EpochLog::create(cfg, "svc", 0).unwrap();
        let mut mirror = EpochState::default();
        let mut tail = LogTailer::new(&dir);
        let mut entries: Vec<(u128, u32)> = Vec::new();
        let mut seen = Vec::new();
        let mut resets = 0u32;
        for e in 1..=6u64 {
            entries.push((u128::from(e), e as u32));
            publish(&mut log, &mut mirror, e, &entries).unwrap();
            let (records, report) = tail.poll().unwrap();
            seen.extend(records.iter().map(|r| r.epoch));
            resets += u32::from(report.reset);
        }
        // Epochs 2/4/6 were compacted into checkpoints before the poll:
        // delivered strictly once each, strictly increasing, no
        // duplicates across the log resets.
        assert_eq!(seen, vec![1, 3, 5]);
        assert!(resets >= 2, "the log reset under the tailer");
        assert_eq!(tail.last_epoch(), 5);
        // The gaps are recoverable: the store itself still knows the
        // full state (checkpoint + tail replay).
        assert_eq!(crate::recover(&dir).unwrap().state.epoch, 6);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_retries_next_poll() {
        let dir = scratch_dir("tail-torn");
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let mut log = EpochLog::create(cfg.clone(), "svc", 0).unwrap();
        let mut mirror = EpochState::default();
        publish(&mut log, &mut mirror, 1, &[(7, 0)]).unwrap();
        let mut tail = LogTailer::new(&dir);
        let (records, _) = tail.poll().unwrap();
        assert_eq!(records.len(), 1);

        // Torn garbage at the tail: nothing delivered, cursor not stuck.
        let path = cfg.log_path();
        let good = std::fs::read(&path).unwrap();
        let mut torn = good.clone();
        torn.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &torn).unwrap();
        let (records, report) = tail.poll().unwrap();
        assert!(records.is_empty());
        assert_eq!(report.quarantined, 0);

        // The append "completes" (torn bytes replaced by a real frame):
        // delivery resumes from the same cursor.
        std::fs::write(&path, &good).unwrap();
        publish(&mut log, &mut mirror, 2, &[(7, 0), (8, 1)]).unwrap();
        let (records, _) = tail.poll().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].epoch, 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bit_rot_pins_the_cursor() {
        let dir = scratch_dir("tail-rot");
        let cfg = StoreConfig::new(&dir).checkpoint_every(0).with_fsync(false);
        let mut log = EpochLog::create(cfg.clone(), "svc", 0).unwrap();
        let mut mirror = EpochState::default();
        publish(&mut log, &mut mirror, 1, &[(7, 0)]).unwrap();
        let len_after_1 = std::fs::metadata(cfg.log_path()).unwrap().len() as usize;
        publish(&mut log, &mut mirror, 2, &[(7, 0), (9, 1)]).unwrap();
        drop(log);
        // Flip a bit inside epoch 2's frame payload.
        let path = cfg.log_path();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[len_after_1 + 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let mut tail = LogTailer::new(&dir);
        let (records, report) = tail.poll().unwrap();
        assert_eq!(records.len(), 1, "epoch 1 is intact");
        assert_eq!(report.quarantined, 1);
        // The cursor is pinned in front of the rotten frame.
        let (records, report) = tail.poll().unwrap();
        assert!(records.is_empty());
        assert_eq!(report.quarantined, 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
