//! Torn-tail recovery property: truncating a valid epoch log at *every*
//! byte offset — and flipping arbitrary bits — never panics recovery
//! and never yields a state that was not previously published.
//!
//! This is the crash-consistency contract stated operationally: a crash
//! can stop a write after any byte, and media can corrupt any byte, so
//! for every such prefix/corruption the recovered `content_checksum`
//! must equal the checksum of some epoch the writer completed (or the
//! empty epoch 0). A recovered epoch must also carry exactly the
//! content that epoch had when it was published.

mod common;

use std::collections::BTreeMap;
use std::fs;

use common::append_view;
use proptest::prelude::*;

use v6store::{recover, EpochLog, EpochState, EpochView, StoreConfig};

/// Address-bits strategy over a small domain so epochs overlap.
fn bits() -> impl Strategy<Value = u128> {
    (0u64..64).prop_map(|n| (0x2001_0db8u128 << 96) | u128::from(n))
}

/// Writes one log from cumulative epoch contents; returns, per epoch
/// 0..=N, the `(content_checksum, entry_count)` that was published.
fn write_log(dir: &std::path::Path, weekly: &[Vec<(u128, u32)>]) -> Vec<(u64, usize)> {
    let cfg = StoreConfig::new(dir).checkpoint_every(0).with_fsync(false);
    let mut log = EpochLog::create(cfg, "torn", 1).expect("create");
    let mut mirror = EpochState::default();
    let mut published = vec![(0u64, 0usize)]; // epoch 0: empty store
    let mut content: BTreeMap<u128, u32> = BTreeMap::new();
    for (i, adds) in weekly.iter().enumerate() {
        for &(b, w) in adds {
            let e = content.entry(b).or_insert(w);
            *e = (*e).min(w);
        }
        let entries: Vec<(u128, u32)> = content.iter().map(|(&b, &w)| (b, w)).collect();
        let epoch = (i + 1) as u64;
        let checksum = v6netsim::rng::hash64(epoch, b"torn-tail-checksum");
        append_view(
            &mut log,
            &mut mirror,
            EpochView {
                epoch,
                week: epoch,
                content_checksum: checksum,
                missing_shards: &[],
                entries: &entries,
                aliases: &[],
            },
        )
        .expect("append");
        published.push((checksum, entries.len()));
    }
    published
}

/// Asserts the recovered state is exactly some previously published
/// epoch — matching checksum *and* matching content size.
fn assert_previously_published(dir: &std::path::Path, published: &[(u64, usize)]) {
    let rec = recover(dir).expect("recovery must not fail on a torn/corrupt tail");
    let epoch = rec.state.epoch as usize;
    assert!(
        epoch < published.len(),
        "recovered epoch {epoch} was never published"
    );
    let (checksum, len) = published[epoch];
    assert_eq!(
        rec.state.content_checksum, checksum,
        "epoch {epoch} recovered with a checksum that was never published"
    );
    assert_eq!(
        rec.state.entries.len(),
        len,
        "epoch {epoch} recovered with the wrong content"
    );
    assert_eq!(rec.report.recovered_epoch, rec.state.epoch);
}

proptest! {
    #[test]
    fn truncation_at_every_offset_recovers_a_published_epoch(
        weekly in prop::collection::vec(
            prop::collection::vec((bits(), 0u32..4), 1..10),
            1..5,
        ),
    ) {
        let dir = v6store::scratch_dir("torn-prop");
        let published = write_log(&dir, &weekly);
        let full = fs::read(dir.join(v6store::LOG_FILE)).unwrap();

        for cut in 0..=full.len() {
            fs::write(dir.join(v6store::LOG_FILE), &full[..cut]).unwrap();
            assert_previously_published(&dir, &published);
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn arbitrary_bit_flips_recover_a_published_epoch(
        weekly in prop::collection::vec(
            prop::collection::vec((bits(), 0u32..4), 1..10),
            1..5,
        ),
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 1..6),
    ) {
        let dir = v6store::scratch_dir("rot-prop");
        let published = write_log(&dir, &weekly);
        let full = fs::read(dir.join(v6store::LOG_FILE)).unwrap();

        for &(pos, bit) in &flips {
            let mut rotten = full.clone();
            let idx = (pos % rotten.len() as u64) as usize;
            rotten[idx] ^= 1 << bit;
            fs::write(dir.join(v6store::LOG_FILE), &rotten).unwrap();
            assert_previously_published(&dir, &published);
        }
        fs::remove_dir_all(dir).ok();
    }
}
