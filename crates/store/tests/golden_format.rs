//! Golden-file test pinning on-disk format v2 byte-for-byte, and the
//! reader of format v1.
//!
//! The fixture under `tests/golden/store_format_v2/` (repo root) is a
//! complete store directory — a delta log plus a compacted checkpoint —
//! produced by a fixed publication sequence. Any change to the header,
//! frame layout, payload encoding, checksum, or compaction behavior
//! shows up as a byte diff here and fails CI instead of silently
//! orphaning previously written data. `tests/golden/store_format_v1/`
//! holds the same sequence as format v1 wrote it (flat checkpoint
//! entries); it is never rewritten, and must keep recovering.
//!
//! To regenerate after an *intentional* format-version bump:
//!
//! ```sh
//! V6STORE_REGEN_GOLDEN=1 cargo test -p v6store --test golden_format
//! ```

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use common::append_view;
use v6store::{recover, AliasEntry, DeltaRecord, EpochLog, EpochState, EpochView, StoreConfig};

/// The two files the fixture sequence must produce, exactly.
const FIXTURE_FILES: [&str; 2] = ["epochs.v6log", "checkpoint-00000000000000000002.v6ck"];

fn golden_dir() -> PathBuf {
    fixture_dir("store_format_v2")
}

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// The state both fixtures recover to: epoch 3 of the pinned sequence.
fn fixture_state() -> EpochState {
    let base: u128 = 0x2001_0db8 << 96;
    EpochState {
        name: "golden".into(),
        shard_bits: 2,
        epoch: 3,
        week: 2,
        content_checksum: 0x1111_0003,
        missing_shards: vec![],
        entries: vec![
            (base | 1, 0),
            (base | 0x30, 1),
            (base | 0x41, 1),
            (base | 0x52, 2),
        ],
        aliases: vec![AliasEntry {
            bits: base,
            len: 48,
            week: 1,
        }],
    }
}

/// Replays the pinned publication sequence into `dir`: three epochs with
/// adds, a week upgrade, a removal, an alias, a degraded shard — one of
/// every delta feature — with a checkpoint compaction after epoch 2.
fn build_fixture(dir: &Path) {
    let base: u128 = 0x2001_0db8 << 96;
    let cfg = StoreConfig::new(dir).checkpoint_every(2).with_fsync(false);
    let mut log = EpochLog::create(cfg, "golden", 2).expect("create fixture store");
    let mut mirror = EpochState::default();
    append_view(
        &mut log,
        &mut mirror,
        EpochView {
            epoch: 1,
            week: 0,
            content_checksum: 0x1111_0001,
            missing_shards: &[],
            entries: &[(base | 1, 0), (base | 2, 0), (base | 0x30, 0)],
            aliases: &[],
        },
    )
    .expect("epoch 1");
    // Epoch 2: one removal, one week upgrade, one add, one alias, one
    // degraded shard — then the interval-2 checkpoint compacts the log.
    append_view(
        &mut log,
        &mut mirror,
        EpochView {
            epoch: 2,
            week: 1,
            content_checksum: 0x1111_0002,
            missing_shards: &[3],
            entries: &[(base | 1, 0), (base | 0x30, 1), (base | 0x41, 1)],
            aliases: &[AliasEntry {
                bits: base,
                len: 48,
                week: 1,
            }],
        },
    )
    .expect("epoch 2");
    // Epoch 3 lands in the freshly reset log.
    append_view(
        &mut log,
        &mut mirror,
        EpochView {
            epoch: 3,
            week: 2,
            content_checksum: 0x1111_0003,
            missing_shards: &[],
            entries: &[
                (base | 1, 0),
                (base | 0x30, 1),
                (base | 0x41, 1),
                (base | 0x52, 2),
            ],
            aliases: &[AliasEntry {
                bits: base,
                len: 48,
                week: 1,
            }],
        },
    )
    .expect("epoch 3");
}

/// The same three transitions as [`build_fixture`], written out by hand
/// as the records a delta-holding caller (a cluster replica) passes to
/// [`EpochLog::append_delta`] — no diff is computed anywhere.
fn build_fixture_from_records(dir: &Path) {
    let base: u128 = 0x2001_0db8 << 96;
    let alias = AliasEntry {
        bits: base,
        len: 48,
        week: 1,
    };
    let cfg = StoreConfig::new(dir).checkpoint_every(2).with_fsync(false);
    let mut log = EpochLog::create(cfg, "golden", 2).expect("create fixture store");
    let no_checkpoint_due = || -> (Vec<(u128, u32)>, Vec<AliasEntry>) {
        panic!("content asked for on an append that owes no checkpoint")
    };
    let receipt = log
        .append_delta(
            &DeltaRecord {
                epoch: 1,
                week: 0,
                content_checksum: 0x1111_0001,
                missing_shards: vec![],
                removed: vec![],
                added: vec![(base | 1, 0), (base | 2, 0), (base | 0x30, 0)],
                removed_aliases: vec![],
                added_aliases: vec![],
            },
            no_checkpoint_due,
        )
        .expect("epoch 1");
    assert!(!receipt.checkpointed);
    let receipt = log
        .append_delta(
            &DeltaRecord {
                epoch: 2,
                week: 1,
                content_checksum: 0x1111_0002,
                missing_shards: vec![3],
                removed: vec![base | 2],
                added: vec![(base | 0x30, 1), (base | 0x41, 1)],
                removed_aliases: vec![],
                added_aliases: vec![alias],
            },
            || {
                (
                    vec![(base | 1, 0), (base | 0x30, 1), (base | 0x41, 1)],
                    vec![alias],
                )
            },
        )
        .expect("epoch 2");
    assert!(receipt.checkpointed);
    log.append_delta(
        &DeltaRecord {
            epoch: 3,
            week: 2,
            content_checksum: 0x1111_0003,
            missing_shards: vec![],
            removed: vec![],
            added: vec![(base | 0x52, 2)],
            removed_aliases: vec![],
            added_aliases: vec![],
        },
        no_checkpoint_due,
    )
    .expect("epoch 3");
}

#[test]
fn append_delta_writes_the_bytes_append_view_wrote() {
    // One log format: a record written by hand lands as the exact bytes
    // the whole-state path (`append_view`, which diffs each epoch against
    // a mirror) pinned in the golden fixture, checkpoint included.
    let scratch = v6store::scratch_dir("golden-format-records");
    build_fixture_from_records(&scratch);
    for name in FIXTURE_FILES {
        let got = fs::read(scratch.join(name)).unwrap();
        let want = fs::read(golden_dir().join(name)).unwrap();
        assert_eq!(got, want, "{name}: append_delta diverged from format v2");
    }
    fs::remove_dir_all(&scratch).ok();
}

#[test]
fn on_disk_format_matches_golden_fixture() {
    let scratch = v6store::scratch_dir("golden-format");
    build_fixture(&scratch);

    let mut produced: Vec<String> = fs::read_dir(&scratch)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    produced.sort();
    let mut expected: Vec<String> = FIXTURE_FILES.iter().map(|s| s.to_string()).collect();
    expected.sort();
    assert_eq!(produced, expected, "fixture file set changed");

    let golden = golden_dir();
    if std::env::var("V6STORE_REGEN_GOLDEN").is_ok() {
        fs::create_dir_all(&golden).unwrap();
        for name in FIXTURE_FILES {
            fs::copy(scratch.join(name), golden.join(name)).unwrap();
        }
        fs::remove_dir_all(&scratch).ok();
        panic!("golden fixture regenerated under {golden:?}; rerun without V6STORE_REGEN_GOLDEN");
    }

    for name in FIXTURE_FILES {
        let got = fs::read(scratch.join(name)).unwrap();
        let want = fs::read(golden.join(name)).unwrap_or_else(|e| {
            panic!("missing golden file {name} ({e}); regenerate with V6STORE_REGEN_GOLDEN=1")
        });
        assert_eq!(
            got, want,
            "{name} bytes diverged from format-v2 golden — if the format change is \
             intentional, bump FORMAT_VERSION and regenerate"
        );
    }
    fs::remove_dir_all(&scratch).ok();
}

/// `dir` recovers to [`fixture_state`] from its epoch-2 checkpoint plus
/// one replayed delta, with nothing truncated or quarantined.
fn assert_recovers_fixture(dir: &Path) {
    let rec = recover(dir).expect("golden fixture must recover");
    assert_eq!(rec.state, fixture_state());
    assert_eq!(rec.report.checkpoint_epoch, Some(2));
    assert_eq!(rec.report.corrupt_checkpoints, 0);
    assert_eq!(rec.report.replayed, 1);
    assert_eq!(rec.report.truncated_bytes, 0);
    assert_eq!(rec.report.quarantined, 0);
}

#[test]
fn golden_fixture_still_recovers() {
    // Reading the *committed* fixture (not freshly written bytes) proves
    // today's reader still understands yesterday's data.
    assert_recovers_fixture(&golden_dir());
}

#[test]
fn v1_fixture_still_recovers() {
    // Read v1, write v2: a directory format v1 wrote (flat checkpoint
    // entries under tag 2, version-1 headers) recovers to the same state.
    assert_recovers_fixture(&fixture_dir("store_format_v1"));
}
