//! The write-ahead epoch log: append-only deltas plus compacted
//! checkpoints.
//!
//! A store directory contains one append-only log (`epochs.v6log`) and
//! zero or more checkpoint files (`checkpoint-<epoch>.v6ck`). Every
//! published epoch appends one delta frame — the difference between the
//! previous epoch's content and the new one — and is fsynced before the
//! caller may make the epoch visible (write-ahead ordering). Every
//! `checkpoint_interval` epochs the full state is compacted into a new
//! checkpoint file (written to a temp name, fsynced, renamed) and the
//! log is reset to its empty prelude, bounding replay work and disk
//! growth; `retain_checkpoints` older checkpoints are kept as fallbacks
//! against a corrupt newest checkpoint.
//!
//! # Record in, content on demand
//!
//! The one write primitive is [`EpochLog::append_delta`]: it encodes and
//! appends the [`DeltaRecord`] it is handed. The log keeps only the
//! header of its last epoch (name, shard bits, epoch, week, checksum,
//! quarantined shards) — never the content — so an append costs O(Δ).
//! The full content is asked of the caller, through a closure, only on
//! the append on which a checkpoint is actually due. A caller that holds
//! whole states instead of deltas derives each record with
//! [`crate::replica::delta_between`] and keeps its mirror in step with
//! [`crate::replica::apply`].
//!
//! # Fault injection
//!
//! The write path consults a [`v6chaos::Chaos`] source at three sites
//! per epoch, making crash-recovery testing deterministic:
//!
//! | site                      | fault decision → effect                          |
//! |---------------------------|--------------------------------------------------|
//! | `store.append.<epoch>`    | `Error` → torn write (frame cut mid-way, append fails); `Panic` → partial flush (frame written, tail page lost, append fails); `Stall` → delayed append |
//! | `store.bitrot.<epoch>`    | any failure → one bit of the written frame flips *silently*; the append still succeeds |
//! | `store.checkpoint.<epoch>`| any failure → the checkpoint file is written torn and the log is *not* reset; the append still succeeds |
//!
//! A failed append leaves the torn bytes on disk (that is the crash
//! being simulated); the next append first truncates back to the last
//! good offset, so a process that survives a write error self-heals.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use v6chaos::{Chaos, Fault, NoChaos};
use v6netsim::rng::hash64;
use v6obs::{Counter, Histogram, Registry};

use crate::format::{
    self, AliasEntry, Dec, Enc, FrameOutcome, HEADER_LEN, KIND_CHECKPOINT, KIND_LOG,
    TAG_CHECKPOINT, TAG_CHECKPOINT_V1, TAG_DELTA, TAG_META,
};

/// File name of the append-only epoch delta log inside a store directory.
pub const LOG_FILE: &str = "epochs.v6log";

/// Checkpoint file name for an epoch.
pub fn checkpoint_file(epoch: u64) -> String {
    format!("checkpoint-{epoch:020}.v6ck")
}

/// Parses the epoch out of a checkpoint file name.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(".v6ck")?
        .parse()
        .ok()
}

/// A fresh, unique scratch directory under the system temp dir — shared
/// by the tests and benches, which have no tempdir dependency.
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("v6store-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Durability and compaction knobs for a store directory.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// The store directory (created on demand).
    pub dir: PathBuf,
    /// Epochs between checkpoint compactions (0 = never checkpoint).
    pub checkpoint_interval: u64,
    /// Checkpoint files kept on disk (the newest plus fallbacks); ≥ 1.
    pub retain_checkpoints: usize,
    /// fsync the log after every append and each checkpoint write.
    /// Disable only for benchmarks and tests where torn-tail coverage
    /// comes from injection rather than real crashes.
    pub fsync: bool,
}

impl StoreConfig {
    /// The default configuration for `dir`: checkpoint every 8 epochs,
    /// retain 2 checkpoints, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            checkpoint_interval: 8,
            retain_checkpoints: 2,
            fsync: true,
        }
    }

    /// The same configuration with a different checkpoint interval.
    pub fn checkpoint_every(mut self, epochs: u64) -> Self {
        self.checkpoint_interval = epochs;
        self
    }

    /// The same configuration with fsync toggled.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Path of the epoch delta log.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }
}

/// One epoch's full content, as retained by the log writer and as
/// reconstructed by recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochState {
    /// Service name the store was created under.
    pub name: String,
    /// `log2(shard count)` of the owning store.
    pub shard_bits: u32,
    /// The epoch this state reflects (0 = nothing published yet).
    pub epoch: u64,
    /// Latest study week included.
    pub week: u64,
    /// The caller-supplied content checksum of this epoch (opaque to
    /// the store; the serving layer uses `Snapshot::content_checksum`).
    pub content_checksum: u64,
    /// Sorted shard indices serving stale (quarantined) content.
    pub missing_shards: Vec<u32>,
    /// All `(bits, first week)` entries, sorted ascending by bits.
    pub entries: Vec<(u128, u32)>,
    /// All alias registrations, sorted ascending by `(bits, len)`.
    pub aliases: Vec<AliasEntry>,
}

/// A borrowed view of one epoch's full content: the `next` side of
/// [`crate::replica::delta_between`], which derives the record to append.
#[derive(Debug, Clone, Copy)]
pub struct EpochView<'a> {
    /// Epoch number; must be greater than the last appended epoch.
    pub epoch: u64,
    /// Latest study week included.
    pub week: u64,
    /// Content checksum the serving layer computed for this epoch.
    pub content_checksum: u64,
    /// Sorted shard indices serving stale content.
    pub missing_shards: &'a [u32],
    /// Full `(bits, first week)` content, sorted ascending by bits.
    pub entries: &'a [(u128, u32)],
    /// Full alias registrations, sorted ascending by `(bits, len)`.
    pub aliases: &'a [AliasEntry],
}

/// What one append persisted.
#[derive(Debug, Clone, Copy)]
pub struct AppendReceipt {
    /// The appended epoch.
    pub epoch: u64,
    /// On-disk frame size, bytes.
    pub frame_bytes: u64,
    /// Entries added or week-changed relative to the previous epoch.
    pub delta_added: usize,
    /// Entries removed relative to the previous epoch.
    pub delta_removed: usize,
    /// True when this append also compacted a checkpoint.
    pub checkpointed: bool,
    /// Wall time of the append (including fsync and any checkpoint).
    pub wall: Duration,
}

struct LogMetrics {
    appends: Counter,
    fsyncs: Counter,
    bytes: Counter,
    checkpoints: Counter,
    checkpoint_failures: Counter,
    append_latency: Histogram,
}

impl LogMetrics {
    fn from_registry(registry: &Registry) -> Self {
        LogMetrics {
            appends: registry.counter("store.log.appends"),
            fsyncs: registry.counter("store.log.fsyncs"),
            bytes: registry.counter("store.log.bytes"),
            checkpoints: registry.counter("store.log.checkpoints"),
            checkpoint_failures: registry.counter("store.log.checkpoint_failures"),
            append_latency: registry.histogram("store.log.append_latency"),
        }
    }
}

/// The open write-ahead epoch log for one store directory.
pub struct EpochLog {
    cfg: StoreConfig,
    file: File,
    /// Offset up to which the log is known good (frames fully written).
    good_len: u64,
    /// Length of the header + meta prelude an empty log consists of.
    prelude_len: u64,
    /// True after a failed append left torn bytes past `good_len`.
    dirty: bool,
    /// The header of the last appended epoch; `entries` and `aliases`
    /// stay empty — the content lives with the caller.
    head: EpochState,
    last_checkpoint_epoch: u64,
    chaos: Arc<dyn Chaos>,
    metrics: LogMetrics,
}

impl std::fmt::Debug for EpochLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochLog")
            .field("dir", &self.cfg.dir)
            .field("epoch", &self.head.epoch)
            .field("good_len", &self.good_len)
            .field("dirty", &self.dirty)
            .finish()
    }
}

fn meta_payload(name: &str, shard_bits: u32) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(TAG_META);
    e.name(name);
    e.u32(shard_bits);
    e.into_bytes()
}

pub(crate) fn delta_payload(record: &DeltaRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(TAG_DELTA);
    e.delta(record);
    e.into_bytes()
}

/// `buf` with a checkpoint payload, tag byte included, appended.
pub(crate) fn checkpoint_payload(buf: Vec<u8>, state: &EpochState) -> Vec<u8> {
    let mut e = Enc::appending(buf);
    e.u8(TAG_CHECKPOINT);
    e.state(state);
    e.into_bytes()
}

/// Decodes a checkpoint payload, tag byte included: a key-block body,
/// or the flat body format v1 wrote.
pub(crate) fn decode_checkpoint(payload: &[u8]) -> Option<EpochState> {
    let mut d = Dec::new(payload);
    let state = match d.u8()? {
        TAG_CHECKPOINT => d.state()?,
        TAG_CHECKPOINT_V1 => d.state_v1()?,
        _ => return None,
    };
    d.is_exhausted().then_some(state)
}

/// One epoch's diff from its predecessor — the unit the log persists
/// and (since ROADMAP item 4) the unit replicated node-to-node. See
/// [`crate::replica`] for the public replication API around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// The epoch this delta produces when applied.
    pub epoch: u64,
    /// Latest study week included in the produced epoch.
    pub week: u64,
    /// Content checksum of the produced epoch.
    pub content_checksum: u64,
    /// Sorted shard indices serving stale content in the produced epoch.
    pub missing_shards: Vec<u32>,
    /// Address bits removed since the previous epoch, sorted ascending.
    pub removed: Vec<u128>,
    /// Entries added or week-changed since the previous epoch, sorted.
    pub added: Vec<(u128, u32)>,
    /// Alias keys `(bits, len)` removed since the previous epoch.
    pub removed_aliases: Vec<(u128, u8)>,
    /// Alias registrations added or week-changed, sorted.
    pub added_aliases: Vec<AliasEntry>,
}

pub(crate) fn decode_delta(payload: &[u8]) -> Option<DeltaRecord> {
    let mut d = Dec::new(payload);
    if d.u8()? != TAG_DELTA {
        return None;
    }
    let record = d.delta()?;
    d.is_exhausted().then_some(record)
}

pub(crate) fn decode_meta(payload: &[u8]) -> Option<(String, u32)> {
    let mut d = Dec::new(payload);
    if d.u8()? != TAG_META {
        return None;
    }
    let name = d.name()?;
    let shard_bits = d.u32()?;
    d.is_exhausted().then_some((name, shard_bits))
}

/// Applies a delta record to a state in place (remove, then upsert).
pub(crate) fn apply_delta(state: &mut EpochState, record: &DeltaRecord) {
    state.epoch = record.epoch;
    state.week = record.week;
    state.content_checksum = record.content_checksum;
    state.missing_shards = record.missing_shards.clone();
    if !record.removed.is_empty() {
        let mut r = record.removed.iter().peekable();
        state.entries.retain(|&(bits, _)| {
            while let Some(&&next) = r.peek() {
                if next < bits {
                    r.next();
                } else {
                    break;
                }
            }
            r.peek() != Some(&&bits)
        });
    }
    if !record.added.is_empty() {
        let old = std::mem::take(&mut state.entries);
        state.entries = merge_upsert(&old, &record.added);
    }
    if !record.removed_aliases.is_empty() {
        let keys: &[(u128, u8)] = &record.removed_aliases;
        state
            .aliases
            .retain(|a| keys.binary_search(&(a.bits, a.len)).is_err());
    }
    if !record.added_aliases.is_empty() {
        let old = std::mem::take(&mut state.aliases);
        let mut out = Vec::with_capacity(old.len() + record.added_aliases.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.len() && j < record.added_aliases.len() {
            let a = old[i];
            let b = record.added_aliases[j];
            match (a.bits, a.len).cmp(&(b.bits, b.len)) {
                std::cmp::Ordering::Less => {
                    out.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(b); // the delta's week wins
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&old[i..]);
        out.extend_from_slice(&record.added_aliases[j..]);
        state.aliases = out;
    }
}

/// Sorted merge of `old` and `upserts`, with `upserts` winning on equal
/// bits.
fn merge_upsert(old: &[(u128, u32)], upserts: &[(u128, u32)]) -> Vec<(u128, u32)> {
    let mut out = Vec::with_capacity(old.len() + upserts.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < upserts.len() {
        match old[i].0.cmp(&upserts[j].0) {
            std::cmp::Ordering::Less => {
                out.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(upserts[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(upserts[j]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&old[i..]);
    out.extend_from_slice(&upserts[j..]);
    out
}

/// The delta between two sorted entry sets.
pub(crate) fn diff_entries(
    old: &[(u128, u32)],
    new: &[(u128, u32)],
) -> (Vec<u128>, Vec<(u128, u32)>) {
    let mut removed = Vec::new();
    let mut added = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        match old[i].0.cmp(&new[j].0) {
            std::cmp::Ordering::Less => {
                removed.push(old[i].0);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if old[i].1 != new[j].1 {
                    added.push(new[j]); // week changed: upsert
                }
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend(old[i..].iter().map(|&(b, _)| b));
    added.extend_from_slice(&new[j..]);
    (removed, added)
}

/// The delta between two sorted alias sets.
pub(crate) fn diff_aliases(
    old: &[AliasEntry],
    new: &[AliasEntry],
) -> (Vec<(u128, u8)>, Vec<AliasEntry>) {
    let mut removed = Vec::new();
    let mut added = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        let a = old[i];
        let b = new[j];
        match (a.bits, a.len).cmp(&(b.bits, b.len)) {
            std::cmp::Ordering::Less => {
                removed.push((a.bits, a.len));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(b);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if a.week != b.week {
                    added.push(b);
                }
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend(old[i..].iter().map(|a| (a.bits, a.len)));
    added.extend_from_slice(&new[j..]);
    (removed, added)
}

impl EpochLog {
    /// Creates a fresh store in `cfg.dir`, wiping any existing store
    /// files, and fsyncs the empty log prelude so a crash immediately
    /// after creation recovers to an empty epoch-0 store.
    pub fn create(cfg: StoreConfig, name: &str, shard_bits: u32) -> io::Result<Self> {
        Self::create_with(cfg, name, shard_bits, v6obs::global(), Arc::new(NoChaos))
    }

    /// [`EpochLog::create`] recording metrics into `registry` and
    /// consulting `chaos` at the write-path fault sites.
    pub fn create_with(
        cfg: StoreConfig,
        name: &str,
        shard_bits: u32,
        registry: &Registry,
        chaos: Arc<dyn Chaos>,
    ) -> io::Result<Self> {
        assert!(cfg.retain_checkpoints >= 1, "must retain >= 1 checkpoint");
        fs::create_dir_all(&cfg.dir)?;
        // Wipe previous store files so "create" always means fresh.
        for entry in fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            if fname == LOG_FILE || parse_checkpoint_name(&fname).is_some() {
                fs::remove_file(entry.path())?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(cfg.log_path())?;
        let mut prelude = format::header(KIND_LOG);
        prelude.extend_from_slice(&format::frame(&meta_payload(name, shard_bits)));
        file.write_all(&prelude)?;
        if cfg.fsync {
            file.sync_data()?;
        }
        let prelude_len = prelude.len() as u64;
        Ok(EpochLog {
            metrics: LogMetrics::from_registry(registry),
            cfg,
            file,
            good_len: prelude_len,
            prelude_len,
            dirty: false,
            head: EpochState {
                name: name.to_string(),
                shard_bits,
                ..EpochState::default()
            },
            last_checkpoint_epoch: 0,
            chaos,
        })
    }

    /// Reopens the log of a recovered store for appending, truncating
    /// any torn or quarantined tail past the last valid frame (the
    /// truncate half of truncate-and-report; the report half is the
    /// [`crate::RecoveryReport`] recovery produced). Only the header of
    /// `state` is kept; its content stays with the caller.
    pub fn resume(
        cfg: StoreConfig,
        state: &EpochState,
        report: &crate::RecoveryReport,
        registry: &Registry,
        chaos: Arc<dyn Chaos>,
    ) -> io::Result<Self> {
        assert!(cfg.retain_checkpoints >= 1, "must retain >= 1 checkpoint");
        let prelude_len =
            (HEADER_LEN + 4 + meta_payload(&state.name, state.shard_bits).len() + 8) as u64;
        let path = cfg.log_path();
        let needs_prelude = report.log_good_len < prelude_len || !path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(needs_prelude)
            .open(&path)?;
        let good_len = if needs_prelude {
            let mut prelude = format::header(KIND_LOG);
            prelude.extend_from_slice(&format::frame(&meta_payload(&state.name, state.shard_bits)));
            file.write_all(&prelude)?;
            prelude.len() as u64
        } else {
            file.set_len(report.log_good_len)?;
            report.log_good_len
        };
        if cfg.fsync {
            file.sync_data()?;
        }
        Ok(EpochLog {
            metrics: LogMetrics::from_registry(registry),
            cfg,
            file,
            good_len,
            prelude_len,
            dirty: false,
            last_checkpoint_epoch: report.checkpoint_epoch.unwrap_or(0),
            head: EpochState {
                entries: Vec::new(),
                aliases: Vec::new(),
                missing_shards: state.missing_shards.clone(),
                name: state.name.clone(),
                ..*state
            },
            chaos,
        })
    }

    /// The epoch of the last successfully appended frame.
    pub fn epoch(&self) -> u64 {
        self.head.epoch
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Appends one epoch's delta record. The frame is durable (fsynced,
    /// when enabled) before this returns `Ok` — the write-ahead
    /// contract: a caller must not make the epoch visible to readers
    /// until then.
    ///
    /// `content` yields the full `(entries, aliases)` of the epoch the
    /// record produces, sorted as [`EpochState`] holds them. It is
    /// called only when this append is due a checkpoint, so the steady
    /// state never materializes the corpus.
    ///
    /// An `Err` means the epoch is NOT durable and must not be made
    /// visible; the file may hold a torn frame (exactly what a crash
    /// would leave), which the next append truncates away.
    pub fn append_delta(
        &mut self,
        record: &DeltaRecord,
        content: impl FnOnce() -> (Vec<(u128, u32)>, Vec<AliasEntry>),
    ) -> io::Result<AppendReceipt> {
        let started = Instant::now();
        let epoch = record.epoch;
        if epoch <= self.head.epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "epoch {} not after last appended epoch {}",
                    epoch, self.head.epoch
                ),
            ));
        }
        if self.dirty {
            // Self-heal after a prior failed append: drop the torn tail.
            self.file.set_len(self.good_len)?;
            if self.cfg.fsync {
                self.file.sync_data()?;
                self.metrics.fsyncs.inc();
            }
            self.dirty = false;
        }

        let payload = delta_payload(record);
        let frame = format::frame(&payload);

        self.file.seek(SeekFrom::Start(self.good_len))?;
        match self.chaos.decide(&format!("store.append.{epoch}"), 0) {
            Fault::None => self.file.write_all(&frame)?,
            Fault::Stall(d) => {
                std::thread::sleep(d);
                self.file.write_all(&frame)?;
            }
            Fault::Error => {
                // Torn write: the process "crashed" mid-frame. Cut at a
                // deterministic offset so replays reproduce the tear.
                let cut = 1 + (hash64(epoch, b"store.torn") % (frame.len() as u64 - 1));
                self.file.write_all(&frame[..cut as usize])?;
                self.file.sync_data().ok();
                self.dirty = true;
                return Err(io::Error::other(format!(
                    "injected torn write (store.append.{}, {} of {} bytes)",
                    epoch,
                    cut,
                    frame.len()
                )));
            }
            Fault::Panic => {
                // Partial flush: the frame was written but the final
                // page never reached disk.
                let lost = 1 + (hash64(epoch, b"store.flush") % (frame.len() as u64 - 1).min(64));
                self.file.write_all(&frame)?;
                self.file
                    .set_len(self.good_len + frame.len() as u64 - lost)?;
                self.file.sync_data().ok();
                self.dirty = true;
                return Err(io::Error::other(format!(
                    "injected partial flush (store.append.{epoch}, lost {lost} tail bytes)"
                )));
            }
        }
        if self.chaos.fails(&format!("store.bitrot.{epoch}"), 0) {
            // Silent media corruption: flip one payload bit in place.
            // The append still "succeeds" — only recovery notices.
            let h = hash64(epoch, b"store.bitrot");
            let offset = self.good_len + 4 + (h % payload.len() as u64);
            let bit = 1u8 << ((h >> 32) % 8);
            let mut byte = [0u8; 1];
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read_exact(&mut byte)?;
            byte[0] ^= bit;
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.write_all(&byte)?;
        }
        if self.cfg.fsync {
            self.file.sync_data()?;
            self.metrics.fsyncs.inc();
        }
        self.good_len += frame.len() as u64;
        self.metrics.appends.inc();
        self.metrics.bytes.add(frame.len() as u64);

        self.head.epoch = epoch;
        self.head.week = record.week;
        self.head.content_checksum = record.content_checksum;
        self.head.missing_shards.clone_from(&record.missing_shards);

        let mut checkpointed = false;
        if self.cfg.checkpoint_interval > 0
            && epoch - self.last_checkpoint_epoch >= self.cfg.checkpoint_interval
        {
            let (entries, aliases) = content();
            checkpointed = self.checkpoint(entries, aliases)?;
        }
        let wall = started.elapsed();
        self.metrics.append_latency.record_duration(wall);
        Ok(AppendReceipt {
            epoch,
            frame_bytes: frame.len() as u64,
            delta_added: record.added.len(),
            delta_removed: record.removed.len(),
            checkpointed,
            wall,
        })
    }

    /// Compacts the last appended epoch — the head plus the content the
    /// caller just supplied — into a checkpoint file and resets the log
    /// to its empty prelude. Returns false when the checkpoint write was
    /// faulted (the log is left intact — nothing is lost, the next
    /// interval retries).
    fn checkpoint(
        &mut self,
        entries: Vec<(u128, u32)>,
        aliases: Vec<AliasEntry>,
    ) -> io::Result<bool> {
        let epoch = self.head.epoch;
        let state = EpochState {
            entries,
            aliases,
            ..self.head.clone()
        };
        // Header and frame in one buffer sized up front (fixed fields and
        // counts take under 64 bytes; a key block costs at most 24 B per
        // entry, one entry per /64), the payload encoded in place.
        let mut bytes = format::header(KIND_CHECKPOINT);
        let lists = 4 * state.missing_shards.len() + 24 * state.entries.len();
        bytes.reserve(64 + state.name.len() + lists + 21 * state.aliases.len());
        format::frame_into(&mut bytes, |buf| {
            *buf = checkpoint_payload(std::mem::take(buf), &state);
        });
        let final_path = self.cfg.dir.join(checkpoint_file(epoch));

        if self.chaos.fails(&format!("store.checkpoint.{epoch}"), 0) {
            // Torn checkpoint: the file appears but is incomplete. The
            // log is NOT reset, so no data is lost — recovery skips the
            // corrupt checkpoint and replays the intact log.
            let cut = HEADER_LEN as u64
                + 1
                + (hash64(epoch, b"store.ckpt") % (bytes.len() - HEADER_LEN - 1).max(1) as u64);
            fs::write(&final_path, &bytes[..cut as usize])?;
            self.metrics.checkpoint_failures.inc();
            return Ok(false);
        }

        let tmp_path = self.cfg.dir.join(format!("{}.tmp", checkpoint_file(epoch)));
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&bytes)?;
            if self.cfg.fsync {
                tmp.sync_data()?;
                self.metrics.fsyncs.inc();
            }
        }
        fs::rename(&tmp_path, &final_path)?;
        if self.cfg.fsync {
            if let Ok(dir) = File::open(&self.cfg.dir) {
                dir.sync_all().ok();
            }
        }
        // The checkpoint covers every logged delta: reset the log to its
        // prelude so replay length stays bounded.
        self.file.set_len(self.prelude_len)?;
        if self.cfg.fsync {
            self.file.sync_data()?;
            self.metrics.fsyncs.inc();
        }
        self.good_len = self.prelude_len;
        self.last_checkpoint_epoch = epoch;
        self.metrics.checkpoints.inc();

        // Retention: keep the newest `retain_checkpoints`, drop the rest.
        let mut checkpoints: Vec<(u64, PathBuf)> = fs::read_dir(&self.cfg.dir)?
            .filter_map(|e| {
                let e = e.ok()?;
                let name = e.file_name();
                let epoch = parse_checkpoint_name(&name.to_string_lossy())?;
                Some((epoch, e.path()))
            })
            .collect();
        checkpoints.sort_by_key(|c| std::cmp::Reverse(c.0));
        for (_, path) in checkpoints.into_iter().skip(self.cfg.retain_checkpoints) {
            fs::remove_file(path).ok();
        }
        Ok(true)
    }
}

/// Scans the frames region of a checkpoint file into a state, if valid.
pub(crate) fn parse_checkpoint_bytes(bytes: &[u8]) -> Option<EpochState> {
    if format::parse_header(bytes) != Some(KIND_CHECKPOINT) {
        return None;
    }
    match format::read_frame(&bytes[HEADER_LEN..]) {
        FrameOutcome::Valid { payload, .. } => decode_checkpoint(payload),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Appends `entries` as `epoch`, diffed against `mirror`, and keeps
    /// `mirror` in step (the store's unit tests publish through this).
    pub(crate) fn publish(
        log: &mut EpochLog,
        mirror: &mut EpochState,
        epoch: u64,
        entries: &[(u128, u32)],
    ) -> io::Result<AppendReceipt> {
        let view = EpochView {
            epoch,
            week: epoch,
            content_checksum: epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            missing_shards: &[],
            entries,
            aliases: &[],
        };
        let record = crate::replica::delta_between(mirror, &view);
        let receipt = log.append_delta(&record, || (entries.to_vec(), Vec::new()))?;
        apply_delta(mirror, &record);
        Ok(receipt)
    }

    #[test]
    fn diff_and_apply_round_trip() {
        let old = vec![(1u128, 0u32), (5, 2), (9, 1)];
        let new = vec![(1, 0), (5, 1), (7, 3)];
        let (removed, added) = diff_entries(&old, &new);
        assert_eq!(removed, vec![9]);
        assert_eq!(added, vec![(5, 1), (7, 3)]);
        let mut state = EpochState {
            entries: old,
            ..EpochState::default()
        };
        let record = DeltaRecord {
            epoch: 2,
            week: 2,
            content_checksum: 42,
            missing_shards: vec![1],
            removed,
            added,
            removed_aliases: vec![],
            added_aliases: vec![],
        };
        apply_delta(&mut state, &record);
        assert_eq!(state.entries, new);
        assert_eq!(state.epoch, 2);
        assert_eq!(state.missing_shards, vec![1]);
    }

    #[test]
    fn alias_diff_and_apply() {
        let a = |bits: u128, len: u8, week: u32| AliasEntry { bits, len, week };
        let old = vec![a(1, 48, 0), a(2, 32, 1)];
        let new = vec![a(1, 48, 0), a(3, 48, 2)];
        let (removed, added) = diff_aliases(&old, &new);
        assert_eq!(removed, vec![(2, 32)]);
        assert_eq!(added, vec![a(3, 48, 2)]);
        let mut state = EpochState {
            aliases: old,
            ..EpochState::default()
        };
        let record = DeltaRecord {
            epoch: 1,
            week: 0,
            content_checksum: 0,
            missing_shards: vec![],
            removed: vec![],
            added: vec![],
            removed_aliases: removed,
            added_aliases: added,
        };
        apply_delta(&mut state, &record);
        assert_eq!(state.aliases, new);
    }

    #[test]
    fn create_append_retains_state() {
        let dir = scratch_dir("log-basic");
        let cfg = StoreConfig::new(&dir).with_fsync(false);
        let mut log = EpochLog::create(cfg, "svc", 2).unwrap();
        let mut mirror = EpochState::default();
        let entries = vec![(10u128, 0u32), (20, 1)];
        let receipt = publish(&mut log, &mut mirror, 1, &entries).unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.delta_added, 2);
        assert_eq!(receipt.delta_removed, 0);
        assert!(!receipt.checkpointed);
        assert_eq!(log.epoch(), 1);
        assert_eq!(mirror.entries, entries);

        // Stale epochs are rejected.
        assert!(publish(&mut log, &mut mirror, 1, &entries).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_resets_log_and_retains() {
        let dir = scratch_dir("log-ckpt");
        let cfg = StoreConfig::new(&dir).checkpoint_every(2).with_fsync(false);
        let mut log = EpochLog::create(cfg.clone(), "svc", 0).unwrap();
        let mut mirror = EpochState::default();
        let mut entries: Vec<(u128, u32)> = Vec::new();
        let mut reset_len = None;
        for e in 1..=6u64 {
            entries.push((u128::from(e) << 16, e as u32));
            let receipt = publish(&mut log, &mut mirror, e, &entries).unwrap();
            assert_eq!(receipt.checkpointed, e % 2 == 0, "epoch {e}");
            if e == 2 {
                reset_len = Some(std::fs::metadata(cfg.log_path()).unwrap().len());
            }
        }
        // After the epoch-6 checkpoint the log is back at its prelude.
        assert_eq!(
            std::fs::metadata(cfg.log_path()).unwrap().len(),
            reset_len.unwrap()
        );
        // Retention keeps 2: epochs 4 and 6.
        let mut found: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_checkpoint_name(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        found.sort_unstable();
        assert_eq!(found, vec![4, 6]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_names_round_trip() {
        assert_eq!(parse_checkpoint_name(&checkpoint_file(17)), Some(17),);
        assert_eq!(parse_checkpoint_name("epochs.v6log"), None);
        assert_eq!(parse_checkpoint_name("checkpoint-x.v6ck"), None);
    }
}
