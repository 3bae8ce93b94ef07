//! v6store: durable epoch storage for the hitlist service.
//!
//! The serving layer ([`v6serve`]) holds every epoch in RAM; this crate
//! makes those epochs survive a restart. The design is the classic
//! write-ahead pair:
//!
//! - an **append-only epoch delta log** (`epochs.v6log`): every
//!   published epoch appends one checksummed frame holding the diff
//!   from the previous epoch — the [`DeltaRecord`] the caller hands
//!   [`EpochLog::append_delta`] — fsynced *before* the epoch becomes
//!   visible to readers;
//! - periodic **compacted checkpoints** (`checkpoint-<epoch>.v6ck`):
//!   the full state written atomically (temp file + rename), after
//!   which the log resets so replay cost and disk usage stay bounded.
//!
//! Startup recovery ([`recover()`]) loads the newest parseable checkpoint
//! and replays the log tail, with explicit truncate-and-report handling
//! for the two corruption classes a crash can leave behind: a **torn
//! tail** (incomplete final frame — truncated) and **bit rot** (a
//! complete frame whose FNV checksum fails — quarantined, and replay
//! stops so the recovered state always equals some previously published
//! epoch). The on-disk layout is versioned and pinned by golden-file
//! tests; see [`mod@format`] and DESIGN.md §11.
//!
//! The write path is instrumented with [`v6obs`] (`store.log.*`,
//! `store.recover.*`) and threaded with [`v6chaos`] fault sites
//! (`store.append.*`, `store.bitrot.*`, `store.checkpoint.*`) so crash
//! recovery is exercised deterministically in tests and CI rather than
//! hoped-for in production.
//!
//! ```
//! use v6store::{recover, DeltaRecord, EpochLog, StoreConfig};
//!
//! let dir = v6store::scratch_dir("doc");
//! let cfg = StoreConfig::new(&dir).with_fsync(false);
//! let mut log = EpochLog::create(cfg, "doc-service", 2).unwrap();
//! let record = DeltaRecord {
//!     epoch: 1,
//!     week: 0,
//!     content_checksum: 0xfeed,
//!     missing_shards: vec![],
//!     removed: vec![],
//!     added: vec![(42, 0)],
//!     removed_aliases: vec![],
//!     added_aliases: vec![],
//! };
//! // The closure supplies the full content, and only runs when a
//! // checkpoint is due.
//! log.append_delta(&record, || (vec![(42, 0)], vec![])).unwrap();
//! drop(log); // "crash"
//!
//! let rec = recover(&dir).unwrap();
//! assert_eq!(rec.state.epoch, 1);
//! assert_eq!(rec.state.content_checksum, 0xfeed);
//! std::fs::remove_dir_all(dir).ok();
//! ```
//!
//! [`v6serve`]: ../v6serve/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod log;
pub mod recover;
pub mod replica;
pub mod tail;

pub use format::{AliasEntry, FORMAT_VERSION, MAGIC};
pub use log::DeltaRecord;
pub use log::{
    checkpoint_file, parse_checkpoint_name, scratch_dir, AppendReceipt, EpochLog, EpochState,
    EpochView, StoreConfig, LOG_FILE,
};
pub use recover::{recover, recover_at, recover_with, RecoverError, Recovery, RecoveryReport};
pub use tail::{LogTailer, TailReport};
