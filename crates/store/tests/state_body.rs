//! The state body a checkpoint frame and a cluster bootstrap carry:
//! /64 key blocks that round-trip every sorted entry set, decode damaged
//! bytes to `None` or to a sorted state (never a panic), and make a
//! checksum-valid checkpoint with misordered content fail closed.

mod common;

use std::fs;
use std::path::Path;

use common::append_view;
use proptest::prelude::*;
use v6netsim::rng::hash64;
use v6store::format::{self, Dec, Enc, KIND_CHECKPOINT, TAG_CHECKPOINT, TAG_CHECKPOINT_V1};
use v6store::{checkpoint_file, recover, AliasEntry, EpochLog, EpochState, EpochView, StoreConfig};

/// Sorted, deduplicated entry sets mixing one-address /64s, a dense /64
/// of 1 000+ lows and keys at `u64::MAX`; one case in four is empty.
fn entries() -> impl Strategy<Value = Vec<(u128, u32)>> {
    (
        0u8..4,
        prop::collection::vec((any::<u128>(), any::<u32>()), 0..6),
        (any::<u64>(), any::<u64>(), 1000u64..1200, 1u64..1000),
        prop::collection::vec((any::<u64>(), any::<u32>()), 1..4),
    )
        .prop_map(|(mode, singles, (key, low, n, stride), at_max)| {
            let mut out = Vec::new();
            if mode == 0 {
                return out;
            }
            out.extend(singles);
            if mode & 1 == 1 {
                let dense = (0..n).map(|i| low.wrapping_add(i * stride));
                out.extend(dense.map(|l| (u128::from(key) << 64 | u128::from(l), (l % 7) as u32)));
            }
            if mode & 2 == 2 {
                out.extend(
                    at_max
                        .iter()
                        .map(|&(l, w)| (u128::from(u64::MAX) << 64 | u128::from(l), w)),
                );
            }
            out.sort_unstable_by_key(|e| e.0);
            out.dedup_by_key(|e| e.0);
            out
        })
}

fn state() -> impl Strategy<Value = EpochState> {
    (
        entries(),
        (any::<u32>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(any::<u32>(), 0..3),
        (any::<u128>(), any::<u8>(), any::<u32>()),
    )
        .prop_map(
            |(entries, (shard_bits, epoch, sum), missing_shards, (bits, len, week))| EpochState {
                name: "body".into(),
                shard_bits,
                epoch,
                week: epoch / 2,
                content_checksum: sum,
                missing_shards,
                entries,
                aliases: vec![AliasEntry { bits, len, week }],
            },
        )
}

fn encode(state: &EpochState) -> Vec<u8> {
    let mut e = Enc::new();
    e.state(state);
    e.into_bytes()
}

fn decode(bytes: &[u8]) -> Option<EpochState> {
    let mut d = Dec::new(bytes);
    d.state().filter(|_| d.is_exhausted())
}

/// A damaged body decodes to `None` or to a sorted state that survives
/// its own round trip.
fn refused_or_sound(bytes: &[u8]) {
    if let Some(got) = decode(bytes) {
        assert!(got.entries.windows(2).all(|w| w[0].0 < w[1].0), "{got:?}");
        assert_eq!(decode(&encode(&got)), Some(got));
    }
}

proptest! {
    #[test]
    fn state_bodies_round_trip(s in state()) {
        let bytes = encode(&s);
        let blocks = s.entries.chunk_by(|a, b| a.0 >> 64 == b.0 >> 64).count();
        // Name "body", shard bits, epoch + week + checksum, missing
        // shards, block count, one alias; then 12 B per /64 and per entry.
        let fixed = (2 + 4) + 4 + 3 * 8 + (4 + 4 * s.missing_shards.len()) + 4 + (4 + 21);
        prop_assert_eq!(bytes.len(), fixed + 12 * blocks + 12 * s.entries.len());
        prop_assert_eq!(decode(&bytes), Some(s));
    }

    #[test]
    fn damaged_state_bodies_refuse_or_stay_sorted(s in state(), seed in any::<u64>()) {
        let bytes = encode(&s);
        for cut in 0..bytes.len() {
            refused_or_sound(&bytes[..cut]);
        }
        // Every bit of a small body, 256 seeded bits of a dense one.
        let bits = bytes.len() * 8;
        let flips: Vec<usize> = if bits <= 8192 {
            (0..bits).collect()
        } else {
            let pick = |i: u16| hash64(seed, &i.to_le_bytes()) % bits as u64;
            (0..256).map(|i| pick(i) as usize).collect()
        };
        for bit in flips {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            refused_or_sound(&flipped);
        }
    }
}

/// One /64 key block as [`Enc::blocks`] writes it, without the count.
fn block(entries: &[(u128, u32)]) -> Vec<u8> {
    let mut e = Enc::new();
    e.blocks(entries);
    e.into_bytes().split_off(4)
}

/// Appends `bytes` to `e` as they are.
fn raw(e: &mut Enc, bytes: &[u8]) {
    let mut buf = std::mem::take(e).into_bytes();
    buf.extend_from_slice(bytes);
    *e = Enc::appending(buf);
}

/// Writes a checksum-valid checkpoint file for `state` whose entries are
/// the body `entries` writes after the tag and the fixed fields.
fn write_checkpoint(dir: &Path, tag: u8, state: &EpochState, entries: impl FnOnce(&mut Enc)) {
    let mut e = Enc::new();
    e.u8(tag);
    e.name(&state.name);
    e.u32(state.shard_bits);
    e.u64(state.epoch);
    e.u64(state.week);
    e.u64(state.content_checksum);
    e.u32_list(&state.missing_shards);
    entries(&mut e);
    e.aliases(&state.aliases);
    let mut file = format::header(KIND_CHECKPOINT);
    file.extend_from_slice(&format::frame(&e.into_bytes()));
    fs::write(dir.join(checkpoint_file(state.epoch)), file).unwrap();
}

#[test]
fn misordered_checkpoint_content_fails_closed() {
    // Two /64s; checkpoints every 2 epochs, so epoch 3 lives in the log
    // on top of checkpoint 2 and a checkpoint-3 file is written by hand.
    let (lo, hi) = (0x2001_0db8u128 << 96, (0x2001_0db8u128 << 96) | 1 << 64);
    let dir = v6store::scratch_dir("misordered-checkpoint");
    let cfg = StoreConfig::new(&dir).checkpoint_every(2).with_fsync(false);
    let mut log = EpochLog::create(cfg, "order", 1).unwrap();
    let mut mirror = EpochState {
        name: "order".into(),
        shard_bits: 1,
        ..EpochState::default()
    };
    let contents = [
        vec![(lo | 1, 0)],
        vec![(lo | 1, 0), (hi | 1, 1)],
        vec![(lo | 1, 0), (lo | 2, 2), (hi | 1, 1), (hi | 3, 2)],
    ];
    for (i, entries) in contents.iter().enumerate() {
        let epoch = i as u64 + 1;
        let view = EpochView {
            epoch,
            week: epoch,
            content_checksum: 0x0dd0_0000 + epoch,
            missing_shards: &[],
            entries,
            aliases: &[],
        };
        append_view(&mut log, &mut mirror, view).unwrap();
    }
    drop(log);
    let (low_block, high_block) = (block(&mirror.entries[..2]), block(&mirror.entries[2..]));

    // In order, the hand-written checkpoint is the recovery base.
    write_checkpoint(&dir, TAG_CHECKPOINT, &mirror, |e| {
        e.u32(2);
        raw(e, &[low_block.as_slice(), &high_block].concat());
    });
    let rec = recover(&dir).unwrap();
    assert_eq!(
        (rec.report.checkpoint_epoch, rec.report.replayed),
        (Some(3), 0)
    );
    assert_eq!(rec.state, mirror);

    // Blocks swapped, or (format v1) two flat entries swapped: the frame
    // checksum holds, but recovery refuses the content and lands on the
    // older checkpoint plus the log.
    let falls_back = |what: &str| {
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.corrupt_checkpoints, 1, "{what}");
        assert_eq!(rec.report.checkpoint_epoch, Some(2), "{what}");
        assert_eq!(rec.report.replayed, 1, "{what}");
        assert_eq!(rec.state, mirror, "{what}");
    };
    write_checkpoint(&dir, TAG_CHECKPOINT, &mirror, |e| {
        e.u32(2);
        raw(e, &[high_block.as_slice(), &low_block].concat());
    });
    falls_back("blocks swapped");
    let mut flat = mirror.entries.clone();
    flat.swap(1, 2);
    write_checkpoint(&dir, TAG_CHECKPOINT_V1, &mirror, |e| e.entries(&flat));
    falls_back("v1 entries swapped");
    fs::remove_dir_all(dir).ok();
}

#[test]
fn non_canonical_blocks_are_refused() {
    let key = 0x2001_0db8u128 << 96;
    let body = |blocks: &[&[(u128, u32)]]| {
        let mut e = Enc::new();
        e.u32(blocks.len() as u32);
        blocks.iter().for_each(|b| raw(&mut e, &block(b)));
        e.into_bytes()
    };
    let whole = body(&[&[(key | 1, 0), (key | 2, 0)]]);
    assert_eq!(
        Dec::new(&whole).blocks(),
        Some(vec![(key | 1, 0), (key | 2, 0)])
    );
    // One /64 split over two blocks: sorted content, repeated key.
    let split = body(&[&[(key | 1, 0)], &[(key | 2, 0)]]);
    assert_eq!(Dec::new(&split).blocks(), None);
    // An empty block after it, at a higher key.
    let mut empty = body(&[&[(key | 1, 0)]]);
    empty[..4].copy_from_slice(&2u32.to_le_bytes());
    empty.extend_from_slice(&u64::MAX.to_le_bytes());
    empty.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(Dec::new(&empty).blocks(), None);
}
