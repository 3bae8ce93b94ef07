//! Micro-benchmarks of the performance-critical kernels.
//!
//! These are the operations a real hitlist pipeline executes billions of
//! times: IID entropy, EUI-64 extraction, address-set algebra, prefix
//! lookups, permutation iteration, and the protocol codecs. Includes the
//! DESIGN.md ablation of sorted-vec sets vs hash sets.
//!
//! Besides the printed criterion timings, the run emits
//! `target/BENCH_kernels.json` (re-recording the committed
//! `BENCH_kernels.json` is a deliberate `cp`): the `v6par` kernels
//! production runs — `par_map_cost` against itself at 1 thread, the
//! radix sort against `sort_unstable` — at three input sizes, so
//! kernel-level regressions are visible separately from pipeline-level
//! ones. The same file carries the layout comparisons — membership
//! structures, longest-prefix match — the per-event time and heap
//! allocations of the streaming operators, the same two of one
//! request through the front door, the time and bytes per entry of
//! a checkpoint, the time per entry of the cluster leader's diff, the
//! time and heap allocations per event of passive NTP collection, and
//! the same two per call of the simulated Internet's probe surface.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, BatchSize, Criterion};

use v6bench::{
    CheckpointRecord, KernelRecord, KernelsBench, LeaderDiffRecord, LpmRecord, MembershipRecord,
    NtpExchangeRecord, Scale, StreamOpRecord, WireRoundtripRecord, WorldProbeRecord,
};
use v6chaos::NoChaos;
use v6hitlist::{ExperimentConfig, NtpCorpus};
use v6serve::persist::{delta_between, delta_to_content, snapshot_from_state};
use v6serve::{CompressedRun, HitlistStore, QueryEngine, SnapshotBuilder};
use v6store::format::{self, Dec, Enc, FrameOutcome, HEADER_LEN, KIND_CHECKPOINT, TAG_CHECKPOINT};
use v6store::{replica, DeltaRecord, EpochState, EpochView};
use v6stream::{Analytics, AsTag, Attrs, Event, PrefixAsTable};
use v6wire::{duplex, AdmissionConfig, Request, WireClient, WireServer};

use v6addr::{iid_entropy, AddrSet, Iid, Prefix, PrefixMap};
use v6netsim::rng::Rng;
use v6netsim::{
    CountryRegistry, DeviceId, IndexPermutation, NtpEvent, NtpEventStream, ProbeOutcome,
    Resolution, SimDuration, SimTime, World,
};
use v6ntp::{NtpClient, NtpPacket, NtpPool, NtpTimestamp, Stratum2Server};
use v6scan::{caida_routed48_targets, Icmpv6Message};

fn random_addrs(n: usize, seed: u64) -> Vec<u128> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next_u128()).collect()
}

fn bench_entropy(c: &mut Criterion) {
    let iids: Vec<Iid> = random_addrs(4096, 1)
        .into_iter()
        .map(|b| Iid::new(b as u64))
        .collect();
    c.bench_function("entropy/iid_entropy_4096", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &iid in &iids {
                acc += iid_entropy(black_box(iid));
            }
            acc
        })
    });
}

fn bench_eui64(c: &mut Criterion) {
    let iids: Vec<Iid> = random_addrs(4096, 2)
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            if i % 32 == 0 {
                // Plant the EUI-64 signature in a slice of the input.
                Iid::new(
                    (b as u64 & 0xffff_ffff_0000_0000) | 0xff_fe00_0000 | (b as u64 & 0xffffff),
                )
            } else {
                Iid::new(b as u64)
            }
        })
        .collect();
    c.bench_function("eui64/screen_4096", |b| {
        b.iter(|| iids.iter().filter(|i| i.to_mac().is_some()).count())
    });
}

fn bench_sets(c: &mut Criterion) {
    let a_bits = random_addrs(100_000, 3);
    let mut b_bits = random_addrs(100_000, 4);
    b_bits[..20_000].copy_from_slice(&a_bits[..20_000]);
    let a = AddrSet::from_bits(a_bits.clone());
    let b = AddrSet::from_bits(b_bits.clone());
    c.bench_function("sets/sorted_vec_intersection_100k", |bch| {
        bch.iter(|| a.intersection_count(black_box(&b)))
    });
    // DESIGN.md ablation: hash-set equivalent of the same intersection.
    let ha: HashSet<u128> = a_bits.iter().copied().collect();
    let hb: HashSet<u128> = b_bits.iter().copied().collect();
    c.bench_function("sets/hashset_intersection_100k", |bch| {
        bch.iter(|| ha.intersection(black_box(&hb)).count())
    });
    c.bench_function("sets/aggregate_to_48_100k", |bch| {
        bch.iter(|| a.aggregate(black_box(48)).len())
    });
    c.bench_function("sets/build_from_100k", |bch| {
        bch.iter_batched(|| a_bits.clone(), AddrSet::from_bits, BatchSize::SmallInput)
    });
}

/// Live heap bytes, so the `lpm` rows report what a structure occupies
/// without the structure exposing its layout.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Allocations and reallocations so far, for the `wire_roundtrip` and
/// `stream_ops` rows.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every call goes to `System` with the arguments the caller
// vouched for; the only addition is a statistic kept beside it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// 10 000 disjoint /48s scattered over the address space.
fn flat_prefixes() -> Vec<(Prefix, u64)> {
    let mut rng = Rng::new(5);
    (0..10_000u64)
        .map(|i| {
            let bits = (rng.next_u128() & (u128::MAX << 80)) | ((i as u128) << 80);
            (Prefix::from_bits(bits, 48), i)
        })
        .collect()
}

/// The `World` route-table shape: 1 000 ASes, each announcing a router
/// /48, a CPE-WAN /34 with two /48s inside it and a customer /33 with
/// five /48s inside it (10 000 prefixes, nested two deep).
fn nested_prefixes() -> Vec<(Prefix, u64)> {
    let mut rng = Rng::new(7);
    let mut out = Vec::new();
    for asn in 0..1_000u128 {
        let p32 = Prefix::from_bits((0x2a00_0000 + asn) << 96, 32);
        let infra33 = p32.subprefix(33, 0);
        let pools = [(infra33.subprefix(34, 1), 2), (p32.subprefix(33, 1), 5)];
        out.push(infra33.subprefix(48, 0));
        for (pool, inside) in pools {
            out.push(pool);
            let slots = pool.subprefix_count(48);
            out.extend((0..inside).map(|_| pool.subprefix(48, rng.next_u64() % slots)));
        }
    }
    out.into_iter().zip(0..).collect()
}

/// Half the probes fall inside a stored prefix, half are uniform misses.
fn lpm_probes(prefixes: &[(Prefix, u64)], n: usize, seed: u64) -> Vec<Ipv6Addr> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let host = rng.next_u128();
            if i % 2 == 0 {
                prefixes[(rng.next_u64() % prefixes.len() as u64) as usize]
                    .0
                    .offset(host)
            } else {
                Ipv6Addr::from(host)
            }
        })
        .collect()
}

fn lpm_hits(map: &PrefixMap<u64>, probes: &[Ipv6Addr]) -> usize {
    probes
        .iter()
        .filter(|a| map.longest_match(**a).is_some())
        .count()
}

fn bench_lpm(c: &mut Criterion) {
    let prefixes = flat_prefixes();
    let map: PrefixMap<u64> = prefixes.iter().copied().collect();
    let probes = lpm_probes(&prefixes, 1024, 6);
    c.bench_function("lpm/flat_1024_of_10k", |b| {
        b.iter(|| lpm_hits(&map, &probes))
    });
}

fn bench_permutation(c: &mut Criterion) {
    let perm = IndexPermutation::new(1 << 20, 7);
    c.bench_function("permute/feistel_apply_4096", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) & ((1 << 20) - 1);
            let mut acc = 0u64;
            for k in 0..4096u64 {
                acc ^= perm.apply((i + k) & ((1 << 20) - 1));
            }
            acc
        })
    });
    // Ablation baseline: linear iteration does no work at all — the
    // difference is the full cost of scan-order randomization.
    c.bench_function("permute/linear_baseline_4096", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..4096u64 {
                acc ^= black_box(k);
            }
            acc
        })
    });
}

fn bench_ntp_codec(c: &mut Criterion) {
    let pkt = NtpPacket::client_request(NtpTimestamp::new(3_850_000_000, 42));
    let wire = pkt.encode();
    c.bench_function("ntp/encode", |b| b.iter(|| black_box(&pkt).encode()));
    c.bench_function("ntp/decode", |b| {
        b.iter(|| NtpPacket::decode(black_box(&wire)).unwrap())
    });
}

fn bench_icmp_codec(c: &mut Criterion) {
    let src: Ipv6Addr = "2a00:1::1".parse().unwrap();
    let dst: Ipv6Addr = "2a00:2::2".parse().unwrap();
    let msg = Icmpv6Message::EchoRequest {
        ident: 0x1234,
        seq: 7,
        payload: bytes::Bytes::from_static(b"zmap6-repro"),
    };
    let wire = msg.encode(src, dst);
    c.bench_function("icmp/encode_with_checksum", |b| {
        b.iter(|| black_box(&msg).encode(src, dst))
    });
    c.bench_function("icmp/decode_verify_checksum", |b| {
        b.iter(|| Icmpv6Message::decode(src, dst, black_box(&wire)).unwrap())
    });
}

/// Best-of-`rounds` wall milliseconds of `f`.
fn best_ms<O>(rounds: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The input sizes each `v6par` kernel is measured at.
const PAR_SIZES: [usize; 3] = [20_000, 100_000, 500_000];

/// Hitlist-shaped sort input: a few thousand /48s under one announced
/// /32, structured subnets and IIDs — the clustering "Clusters in the
/// Expanse" measured, and the shape that lets the adaptive radix sort
/// skip most digit positions.
fn clustered_input(size: usize, seed: u64) -> Vec<(u128, u64)> {
    let mut rng = Rng::new(seed);
    (0..size)
        .map(|_| {
            let h = rng.next_u64();
            let net48 = u128::from((h >> 40) % 4096);
            let subnet = u128::from((h >> 20) % 16);
            let iid = u128::from(h % 262_144);
            let bits = (0x2001_0db8u128 << 96) | (net48 << 80) | (subnet << 64) | iid;
            (bits, h % 1_000_000)
        })
        .collect()
}

/// Measures `par_map_cost` and the radix sort against their baselines
/// and writes `target/BENCH_kernels.json`.
fn emit_par_kernels_json() {
    let threads = v6par::threads().max(2);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut kernels: Vec<KernelRecord> = Vec::new();
    let record =
        |kernels: &mut Vec<KernelRecord>, kernel: &str, size, baseline_ms: f64, kernel_ms: f64| {
            kernels.push(KernelRecord {
                kernel: kernel.to_string(),
                size,
                baseline_ms,
                kernel_ms,
                speedup: baseline_ms / kernel_ms.max(1e-9),
            });
        };

    // par_map: a hash-mixing closure heavy enough (~100 ns/item) that
    // the adaptive cutoff commits to the parallel path at every size.
    for size in PAR_SIZES {
        let items: Vec<u64> = (0..size as u64).collect();
        let work = |_: usize, &x: &u64| {
            let mut h = x;
            for _ in 0..32 {
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) ^ 0xabcd;
            }
            h
        };
        let cost = v6par::Cost::per_item_ns(100).labeled("bench.map");
        let seq = best_ms(3, || v6par::par_map_cost(1, &items, cost, work));
        let par = best_ms(3, || v6par::par_map_cost(threads, &items, cost, work));
        record(&mut kernels, "par_map", size, seq, par);
    }

    // Radix vs comparison sort on the clustered hitlist-shaped input.
    // The input copy is restored *outside* the timed section so the rows
    // measure the sorts, not the allocator.
    type SortFn<'a> = &'a mut dyn FnMut(&mut Vec<(u128, u64)>);
    let sort_ms = |data: &[(u128, u64)], sort: SortFn| -> f64 {
        let mut d = data.to_vec();
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            d.clear();
            d.extend_from_slice(data);
            let t0 = Instant::now();
            sort(&mut d);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            black_box(&d);
        }
        best
    };
    for size in PAR_SIZES {
        let data = clustered_input(size, 0x4ad1);
        let baseline = sort_ms(&data, &mut |d| d.sort_unstable());
        let radix = sort_ms(&data, &mut v6par::radix_sort_u128);
        record(&mut kernels, "radix_sort", size, baseline, radix);
    }

    // The default-scale world at seed 2022 feeds the last two row sets,
    // and is dropped before the other rows build their inputs.
    let (ntp_exchange, world_probe) = {
        let cfg = v6bench::config_for(Scale::Default, 2022);
        let world = World::build(cfg.world.clone(), cfg.seed);
        (
            ntp_exchange_records(&world),
            world_probe_records(&world, &cfg),
        )
    };
    let bench = KernelsBench {
        threads,
        cores,
        kernels,
        membership: [membership_records(), scan_membership_records()].concat(),
        lpm: lpm_records(),
        stream_ops: stream_op_records(),
        wire_roundtrip: wire_roundtrip_records(),
        checkpoint: checkpoint_records(),
        leader_diff: leader_diff_records(),
        ntp_exchange,
        world_probe,
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize kernels bench");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    std::fs::create_dir_all(&dir).expect("create target/");
    let path = dir.join("BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write target/BENCH_kernels.json");
    let back: KernelsBench =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("read back"))
            .expect("BENCH_kernels.json is not valid JSON");
    assert_eq!(back, bench, "BENCH_kernels.json round-trip mismatch");
    println!("v6par kernels ({threads} threads, {cores} cores):");
    for k in &bench.kernels {
        println!(
            "  {:>15} n={:>7}: {:>8.2} ms baseline -> {:>8.2} ms kernel ({:.2}x)",
            k.kernel, k.size, k.baseline_ms, k.kernel_ms, k.speedup
        );
    }
    for m in &bench.membership {
        println!(
            "  membership/{:<16} {:>7} addrs: {:>7.1} ns/probe, {:>9} bytes",
            m.structure, m.addresses, m.ns_per_probe, m.bytes
        );
    }
    for l in &bench.lpm {
        println!(
            "  lpm/{:<12} {:<6} {:>7} prefixes: {:>7.1} ns/probe, {:>9} bytes",
            l.structure, l.shape, l.prefixes, l.ns_per_probe, l.bytes
        );
    }
    for o in &bench.stream_ops {
        println!(
            "  stream/{:<21} {:>7} events: {:>7.1} ns/event, {:.3} allocations/event",
            o.op, o.events, o.ns_per_event, o.allocs_per_event
        );
    }
    for w in &bench.wire_roundtrip {
        println!(
            "  wire/{:<10} {:>7} addrs: {:>7.1} ns/request, {:.2} allocations/request",
            w.mix, w.addresses, w.ns_per_request, w.allocs_per_request
        );
    }
    for c in &bench.checkpoint {
        println!(
            "  checkpoint/{:>2} per /64 {:>6} entries: {:>5.1} ns/entry encode, {:>5.1} ns/entry decode, {:.2} B/entry",
            c.per_64, c.entries, c.encode_ns_per_entry, c.decode_ns_per_entry, c.bytes_per_entry
        );
    }
    for d in &bench.leader_diff {
        println!(
            "  leader_diff/{:<16} {:<7} {:>6} entries, {:>5} changed: {:>5.1} ns/entry",
            d.diff, d.shape, d.entries, d.changed, d.ns_per_entry
        );
    }
    for x in &bench.ntp_exchange {
        println!(
            "  ntp/{:<9} {:>8} events: {:>7.1} ns/event, {:.3} allocations/event",
            x.stage, x.events, x.ns_per_event, x.allocs_per_event
        );
    }
    for p in &bench.world_probe {
        println!(
            "  world/{:<15} {:>6} calls: {:>7.1} ns/call, {:.3} allocations/call",
            p.call, p.calls, p.ns_per_call, p.allocs_per_call
        );
    }
    println!("wrote {}", path.display());
}

/// A checkpoint of a 32 768-entry state — the size one `epoch-trickle`
/// replica writes — at 16 addresses per /64 (the benchmarks' clustered
/// corpora) and at 1 (the key-block body's worst case): header, encode
/// and frame as the log writes it; frame check and decode as recovery
/// reads it.
fn checkpoint_records() -> Vec<CheckpointRecord> {
    const ENTRIES: usize = 32_768;
    [16, 1]
        .into_iter()
        .map(|per_64| {
            let entries = (0..ENTRIES)
                .map(|i| {
                    let key = (0x2001_0db8u128 << 32 | (i / per_64) as u128) << 64;
                    (key | ((i % per_64) as u128) << 32 | 0x5eed, (i % 9) as u32)
                })
                .collect();
            let state = EpochState {
                name: "kernels".into(),
                entries,
                ..EpochState::default()
            };
            let write = || {
                let mut bytes = format::header(KIND_CHECKPOINT);
                bytes.reserve(64 + 24 * ENTRIES);
                format::frame_into(&mut bytes, |buf| {
                    let mut e = Enc::appending(std::mem::take(buf));
                    e.u8(TAG_CHECKPOINT);
                    e.state(&state);
                    *buf = e.into_bytes();
                });
                bytes
            };
            let bytes = write();
            let read = || match format::read_frame(&bytes[HEADER_LEN..]) {
                FrameOutcome::Valid { payload, .. } => Dec::new(&payload[1..]).state(),
                _ => None,
            };
            assert_eq!(read().as_ref(), Some(&state), "checkpoint round trip");
            let per_entry = |ms: f64| ms * 1e6 / ENTRIES as f64;
            CheckpointRecord {
                entries: ENTRIES,
                per_64,
                encode_ns_per_entry: per_entry(best_ms(9, write)),
                decode_ns_per_entry: per_entry(best_ms(9, read)),
                bytes_per_entry: bytes.len() as f64 / ENTRIES as f64,
            }
        })
        .collect()
}

/// The diff a cluster leader derives for one `epoch-trickle`-sized
/// partition — 32 768 entries at 16 addresses per /64 over 4 shards —
/// against its next content: trickle-shaped (96 removals, 64 week
/// changes and 96 additions at random, as one wave hands each
/// partition) and churn-shaped (every other entry replaced by a new
/// address in the same /64, so every block changes). Each row is
/// checked against the store's flat-list diff first.
fn leader_diff_records() -> Vec<LeaderDiffRecord> {
    const ENTRIES: usize = 32_768;
    const PER_64: usize = 16;
    let net =
        |k: usize| (0x2001_0db8u128 << 96) | ((k % 256) as u128) << 80 | ((k / 256) as u128) << 64;
    let mut old: Vec<(u128, u32)> = (0..ENTRIES)
        .map(|i| {
            (
                net(i / PER_64) | ((i % PER_64) as u128) << 32 | 0x5eed,
                (i % 9) as u32,
            )
        })
        .collect();
    old.sort_unstable();
    let state = EpochState {
        name: "kernels".into(),
        shard_bits: 2,
        entries: old.clone(),
        ..EpochState::default()
    };
    let prev = snapshot_from_state(&state);

    let mut rng = Rng::new(0x1eade7);
    let mut trickle: BTreeMap<u128, u32> = old.iter().copied().collect();
    for i in 0..160 {
        let bits = old[(rng.next_u64() % ENTRIES as u64) as usize].0;
        if i < 96 {
            trickle.remove(&bits);
        } else {
            trickle.insert(bits, 9);
        }
    }
    while trickle.len() < ENTRIES {
        let k = (rng.next_u64() % (ENTRIES / PER_64) as u64) as usize;
        trickle.insert(net(k) | u128::from(rng.next_u64() as u32) << 8, 10);
    }
    let churn: BTreeMap<u128, u32> = (old.iter().enumerate())
        .map(|(i, &(bits, week))| match i % 2 {
            0 => (bits, week),
            _ => (bits ^ 1 << 63, 10),
        })
        .collect();

    let mut records = Vec::new();
    for (shape, next) in [("trickle", trickle), ("churn", churn)] {
        let entries: Vec<(u128, u32)> = next.into_iter().collect();
        let next_state = EpochState {
            entries,
            ..state.clone()
        };
        let next = snapshot_from_state(&next_state);
        let canonical = replica::delta_between(
            &state,
            &EpochView {
                epoch: 2,
                week: 0,
                content_checksum: next.content_checksum(),
                missing_shards: &[],
                entries: &next_state.entries,
                aliases: &[],
            },
        );
        let to_content = || delta_to_content(&prev, 2, 0, &next_state.entries, &[]);
        assert_eq!(to_content().as_ref(), Some(&canonical), "delta_to_content");
        assert_eq!(delta_between(&prev, &next, 2), canonical, "delta_between");
        let changed = canonical.removed.len() + canonical.added.len();
        let mut record = |diff: &str, ms: f64| {
            records.push(LeaderDiffRecord {
                diff: diff.into(),
                shape: shape.into(),
                entries: ENTRIES,
                changed,
                ns_per_entry: ms * 1e6 / ENTRIES as f64,
            })
        };
        record("delta_to_content", best_ms(15, to_content));
        record(
            "delta_between",
            best_ms(15, || delta_between(&prev, &next, 2)),
        );
    }
    records
}

/// A request through the front door, closed loop over an in-memory pipe
/// — `WireClient::send → ServerConn::pump → WireClient::poll` — on the
/// `query-hot` corpus size, admission limits out of reach: time and
/// heap allocations per request for single-answer requests and for
/// 16-address batches.
fn wire_roundtrip_records() -> Vec<WireRoundtripRecord> {
    const SHARDS: usize = 8;
    let mut bits: Vec<u128> = clustered_input(65_536, 0x3e7)
        .into_iter()
        .map(|(b, _)| b)
        .collect();
    bits.sort_unstable();
    bits.dedup();
    let mut builder = SnapshotBuilder::new("kernels", SHARDS);
    for (i, &b) in bits.iter().enumerate() {
        builder.add_bits(b, (i % 8) as u32);
    }
    builder.add_alias(Prefix::from_bits(bits[0], 48), 0);
    let store = Arc::new(HitlistStore::new("kernels", SHARDS));
    store.publish(builder.build()).expect("publish");
    const UNREACHABLE: u64 = 1_000_000_000;
    let admission = AdmissionConfig {
        client_rate_per_sec: UNREACHABLE,
        client_burst: UNREACHABLE,
        global_rate_per_sec: UNREACHABLE,
        global_burst: UNREACHABLE,
        flood_rate_per_sec: UNREACHABLE,
        ..AdmissionConfig::default()
    };
    let server = WireServer::new(QueryEngine::new(store), admission, 0);

    let mut rng = Rng::new(0x3e8);
    let addr = |rng: &mut Rng| {
        if rng.next_u64().is_multiple_of(2) {
            bits[(rng.next_u64() % bits.len() as u64) as usize]
        } else {
            (bits[0] >> 64 << 64) | u128::from(rng.next_u64())
        }
    };
    let point: Vec<Request> = (0..1 << 16)
        .map(|_| match rng.next_u64() % 95 {
            0..40 => Request::Membership {
                addr: addr(&mut rng),
            },
            40..55 => Request::MembershipUnaliased {
                addr: addr(&mut rng),
            },
            55..80 => Request::Lookup {
                addr: addr(&mut rng),
            },
            80..90 => Request::Density {
                prefix: Prefix::from_bits(addr(&mut rng), 48),
            },
            _ => Request::NewSince {
                week: rng.next_u64() % 10,
            },
        })
        .collect();
    let batches: Vec<Request> = (0..1 << 12)
        .map(|_| Request::Batch {
            addrs: (0..16).map(|_| addr(&mut rng)).collect(),
        })
        .collect();

    let mut conn = server.open_connection(1);
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).expect("connect");
    conn.pump(&mut server_end, 0).expect("handshake");
    let mut now_us = 0;
    let mut run = |requests: &[Request]| {
        for req in requests {
            now_us += 1;
            client.send(req, now_us).expect("send");
            conn.pump(&mut server_end, now_us).expect("pump");
            black_box(client.poll(now_us).expect("poll"));
        }
    };
    [("point", &point), ("batch16", &batches)]
        .into_iter()
        .map(|(mix, requests)| {
            run(requests); // warm-up: every buffer at its working size
            let before = ALLOCS.load(Relaxed);
            run(requests);
            let allocs = ALLOCS.load(Relaxed) - before;
            let ms = best_ms(5, || run(requests));
            WireRoundtripRecord {
                mix: mix.into(),
                addresses: bits.len(),
                requests: requests.len(),
                ns_per_request: ms * 1e6 / requests.len() as f64,
                allocs_per_request: allocs as f64 / requests.len() as f64,
            }
        })
        .collect()
}

/// The streaming operators on the `epoch-churn` partition shape: an
/// 8 192-entry partition (128 /48s over 64 ASes), a quarter of its IIDs
/// EUI-64 (2^20 NICs of one vendor), half of it replaced per delta. Operator
/// rows get the attributes already resolved; `analytics_apply` is the
/// whole per-event path, resolve included, and `analytics_apply_delta`
/// the same churn as the sorted records a replica folds, one resolve
/// per prefix span. Every row also counts the heap allocations of one
/// round.
fn stream_op_records() -> Vec<StreamOpRecord> {
    const ENTRIES: usize = 8192;
    let mut rng = Rng::new(0x57e4);
    let table = Arc::new(PrefixAsTable::new(
        (0..64u16)
            .map(|index| {
                let country = v6stream::country_code(*b"DE");
                let net = (0x2a00_0100 + u128::from(index)) << 96;
                (net, 32, AsTag { index, country })
            })
            .collect(),
    ));
    // 128 /48s of 16 /64s each, as one partition of that workload has.
    let mut below = |n: u64| rng.next_u64() % n;
    let sites: Vec<u64> = (0..128)
        .map(|_| ((0x2a00_0100 + below(64)) << 32) | (below(1 << 16) << 16))
        .collect();
    let mut entry = || {
        let net64 = sites[below(128) as usize] | below(16);
        let iid = if below(4) == 0 {
            (0x0002_5056 << 40) | (0xfffe << 24) | below(1 << 20)
        } else {
            below(u64::MAX) | 1
        };
        let bits = (u128::from(net64) << 64) | u128::from(iid);
        (bits, below(8) as u32)
    };
    let held: Vec<(u128, u32)> = (0..ENTRIES).map(|_| entry()).collect();
    let fresh: Vec<(u128, u32)> = (0..ENTRIES / 2).map(|_| entry()).collect();
    let leaving = &held[..ENTRIES / 2];

    // One delta out and its inverse back: every timed round starts from
    // the same state.
    let removed = |&(bits, week): &(u128, u32)| Event::Removed { bits, week };
    let added = |&(bits, week): &(u128, u32)| Event::Added { bits, week };
    let events: Vec<(Event, Attrs)> = (leaving.iter().map(removed))
        .chain(fresh.iter().map(added))
        .chain(fresh.iter().map(removed))
        .chain(leaving.iter().map(added))
        .map(|event| (event, Attrs::resolve(&*table, event.bits())))
        .collect();
    let record = |op: &str, events: usize, round: &mut dyn FnMut()| {
        let before = ALLOCS.load(Relaxed);
        round();
        let allocs = ALLOCS.load(Relaxed) - before;
        let ms = best_ms(9, &mut *round);
        StreamOpRecord {
            op: op.into(),
            events,
            ns_per_event: ms * 1e6 / events as f64,
            allocs_per_event: allocs as f64 / events as f64,
        }
    };
    let time = |op: &str, apply: &mut dyn FnMut(&Event, &Attrs)| {
        for &(bits, week) in &held {
            let event = Event::Added { bits, week };
            apply(&event, &Attrs::resolve(&*table, bits));
        }
        record(op, events.len(), &mut || {
            events.iter().for_each(|(e, a)| apply(e, a))
        })
    };

    let mut analytics = Analytics::new(table.clone());
    let (mut entropy, mut devices) = (
        v6stream::EntropyProfile::new(),
        v6stream::DeviceTracker::new(),
    );
    let mut records = vec![
        time("entropy", &mut |e, a| entropy.apply(e, a)),
        time("device", &mut |e, a| devices.apply(e, a)),
        time("analytics_apply", &mut |e, _| analytics.apply(e)),
    ];

    // The same churn out and back as two records, each list sorted; the
    // prior weeks `apply_delta` asks for are replayed from lists
    // computed up front, as a replica replays its snapshot's answers.
    let before: BTreeMap<u128, u32> = held.iter().copied().collect();
    let mut after = before.clone();
    for (bits, _) in leaving {
        after.remove(bits);
    }
    after.extend(fresh.iter().copied());
    let deltas = [churn_delta(&before, &after), churn_delta(&after, &before)];
    let entries: Vec<(u128, u32)> = before.into_iter().collect();
    let mut folded = Analytics::from_entries(table.clone(), &entries);
    let delta_events = deltas.iter().map(|(_, priors)| priors.len()).sum();
    records.push(record("analytics_apply_delta", delta_events, &mut || {
        for (delta, priors) in &deltas {
            let mut priors = priors.iter();
            folded.apply_delta(delta, |_| *priors.next().expect("one per entry"));
        }
    }));

    let iids: Vec<Iid> = events
        .iter()
        .map(|(e, _)| Iid::new(e.bits() as u64))
        .collect();
    records.push(record("iid_entropy", iids.len(), &mut || {
        black_box(iids.iter().map(|&iid| iid_entropy(iid)).sum::<f64>());
    }));
    records
}

/// The record carrying `from` to `to`, and the week before it of each
/// of its entries in record order — removals, then additions.
fn churn_delta(
    from: &BTreeMap<u128, u32>,
    to: &BTreeMap<u128, u32>,
) -> (DeltaRecord, Vec<Option<u32>>) {
    let removed: Vec<u128> = (from.keys())
        .filter(|bits| !to.contains_key(bits))
        .copied()
        .collect();
    let added: Vec<(u128, u32)> = (to.iter())
        .filter(|&(bits, week)| from.get(bits) != Some(week))
        .map(|(&bits, &week)| (bits, week))
        .collect();
    let priors = (removed.iter().chain(added.iter().map(|e| &e.0)))
        .map(|bits| from.get(bits).copied())
        .collect();
    let delta = DeltaRecord {
        epoch: 1,
        week: 0,
        content_checksum: 0,
        missing_shards: Vec::new(),
        removed,
        added,
        removed_aliases: Vec::new(),
        added_aliases: Vec::new(),
    };
    (delta, priors)
}

/// Longest-prefix match over the one prefix index, on a flat and a
/// nested table. A candidate layout is judged by adding its rows here.
fn lpm_records() -> Vec<LpmRecord> {
    const PROBES: usize = 1 << 16;
    [("flat", flat_prefixes()), ("nested", nested_prefixes())]
        .into_iter()
        .map(|(shape, prefixes)| {
            let probes = lpm_probes(&prefixes, PROBES, 0x1b3);
            let before = LIVE_BYTES.load(Relaxed);
            let map: PrefixMap<u64> = prefixes.iter().copied().collect();
            let bytes = LIVE_BYTES.load(Relaxed) - before;
            let ms = best_ms(5, || lpm_hits(&map, &probes));
            LpmRecord {
                structure: "sorted_table".into(),
                shape: shape.into(),
                prefixes: map.len(),
                probes: PROBES,
                ns_per_probe: ms * 1e6 / PROBES as f64,
                bytes,
            }
        })
        .collect()
}

/// Membership-lookup comparison: the same clustered content held as a
/// raw sorted vec and as a compressed run, probed with a
/// half-present/half-absent mix.
fn membership_records() -> Vec<MembershipRecord> {
    const ADDRESSES: usize = 200_000;
    const PROBES: usize = 1 << 16;
    let mut bits: Vec<u128> = clustered_input(ADDRESSES, 0x900d)
        .into_iter()
        .map(|(b, _)| b)
        .collect();
    bits.sort_unstable();
    bits.dedup();

    let mut rng = Rng::new(0x9406);
    let probes: Vec<u128> = (0..PROBES)
        .map(|i| {
            if i % 2 == 0 {
                bits[(rng.next_u64() % bits.len() as u64) as usize]
            } else {
                // Same /32, structured like the content, but absent with
                // overwhelming probability (distinct IID plane).
                (0x2001_0db8u128 << 96) | (u128::from(rng.next_u64()) << 20)
            }
        })
        .collect();

    let run = CompressedRun::from_sorted(bits.iter().copied());
    let probe_ns = |ms: f64| -> f64 { ms * 1e6 / PROBES as f64 };

    let sorted_ms = best_ms(5, || {
        probes
            .iter()
            .filter(|p| bits.binary_search(p).is_ok())
            .count()
    });
    let run_ms = best_ms(5, || {
        probes.iter().filter(|&&p| run.rank(p).is_some()).count()
    });

    vec![
        MembershipRecord {
            structure: "sorted_vec".into(),
            addresses: bits.len(),
            probes: PROBES,
            ns_per_probe: probe_ns(sorted_ms),
            bytes: bits.len() * 16,
        },
        MembershipRecord {
            structure: "compressed_run".into(),
            addresses: bits.len(),
            probes: PROBES,
            ns_per_probe: probe_ns(run_ms),
            bytes: run.heap_bytes(),
        },
    ]
}

/// The membership search of a snapshot shaped like the `query-cold-scan`
/// corpus — 4 194 304 addresses, 16 per /64 and 16 /64s per /48, in 8
/// shards — probed nine times in ten with a near-miss inside a stored
/// /64 and once with a stored address. A probe is the shard's
/// `rank_lower`: the key and block search `contains` runs, answering a
/// rank. The `scan_dependent` row makes each probe's index wait on the
/// previous rank, so probes cannot overlap and the row times one
/// probe's latency, as a closed-loop client sees it. A `contains`
/// answer would not do: it leaves a predicted branch, and the CPU runs
/// the next probe past it as if independent. `scan_independent` issues
/// the same probes in order, and the CPU overlaps their cache misses.
fn scan_membership_records() -> Vec<MembershipRecord> {
    const SHARDS: usize = 8;
    const NETS48: usize = 16_384;
    const PROBES: usize = 1 << 20;
    let mut rng = Rng::new(0x5ca4);
    let mut distinct = |n: usize, draw: &mut dyn FnMut(&mut Rng) -> u128| {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(draw(&mut rng));
        }
        set.into_iter().collect::<Vec<u128>>()
    };
    let nets48 = distinct(NETS48, &mut |r| {
        let h = r.next_u64();
        ((0x2a00_0100 + u128::from(h % 64)) << 96) | (u128::from((h >> 8) % 65_536) << 80)
    });
    let mut bits = Vec::with_capacity(NETS48 * 256);
    for net48 in nets48 {
        for subnet in distinct(16, &mut |r| u128::from(r.next_u64() % 65_536)) {
            let net64 = net48 | (subnet << 64);
            let iids = distinct(16, &mut |r| u128::from(r.next_u64() | 1));
            bits.extend(iids.into_iter().map(|iid| net64 | iid));
        }
    }
    let mut builder = SnapshotBuilder::new("kernels", SHARDS);
    for &b in &bits {
        builder.add_bits(b, 0);
    }
    let snap = builder.build();
    let probes: Vec<u128> = (0..PROBES)
        .map(|_| {
            let known = bits[(rng.next_u64() % bits.len() as u64) as usize];
            if rng.next_u64().is_multiple_of(10) {
                known
            } else {
                (known >> 64 << 64) | u128::from(rng.next_u64() | 1)
            }
        })
        .collect();

    let rank = |b: u128| snap.shard_for(Ipv6Addr::from(b)).run().rank_lower(b);
    let independent_ms = best_ms(5, || probes.iter().map(|&b| rank(b)).sum::<usize>());
    // Opaque to the compiler, so the next index is computed from the
    // rank and not folded to `i + 1`.
    let zero = black_box(0usize);
    let dependent_ms = best_ms(5, || {
        let (mut sum, mut i) = (0, 0);
        for _ in 0..PROBES {
            let r = rank(probes[i]);
            sum += r;
            i = (i + 1 + (r & zero)) % PROBES;
        }
        sum
    });
    [
        ("scan_dependent", dependent_ms),
        ("scan_independent", independent_ms),
    ]
    .into_iter()
    .map(|(structure, ms)| MembershipRecord {
        structure: structure.into(),
        addresses: bits.len(),
        probes: PROBES,
        ns_per_probe: ms * 1e6 / PROBES as f64,
        bytes: snap.stored_bytes() as usize,
    })
    .collect()
}

/// Study days the `ntp_exchange` rows cover: at default scale and seed
/// 2022 the first 47 hold ≈ 1 M of the study's 4.69 M NTP events.
const NTP_DAYS: u64 = 47;

/// Mean nanoseconds (best of 3 rounds) and heap allocations (over one
/// round) per item of a round over `n` items.
fn per_item(n: usize, round: &mut dyn FnMut() -> u64) -> (f64, f64) {
    let before = ALLOCS.load(Relaxed);
    black_box(round());
    let allocs = ALLOCS.load(Relaxed) - before;
    let ms = best_ms(3, &mut *round);
    (ms * 1e6 / n as f64, allocs as f64 / n as f64)
}

/// Passive NTP collection stage by stage (`NtpExchangeRecord::stage`),
/// over the events of the first [`NTP_DAYS`] study days of the
/// default-scale world at seed 2022, on one thread.
fn ntp_exchange_records(world: &World) -> Vec<NtpExchangeRecord> {
    let window = SimDuration::days(NTP_DAYS);
    let (d0, d1) = v6netsim::day_range(SimTime::START, window);
    let events: Vec<NtpEvent> = NtpEventStream::days(world, d0, d1).collect();
    let pool = NtpPool::new(world.vantage_points.clone(), CountryRegistry::builtin());
    let mut servers: Vec<Stratum2Server> = (world.vantage_points.iter())
        .map(|vp| Stratum2Server::new(vp.clone()))
        .collect();
    let record = |stage: &str, n: usize, round: &mut dyn FnMut() -> u64| {
        let (ns_per_event, allocs_per_event) = per_item(n, round);
        NtpExchangeRecord {
            stage: stage.into(),
            events: n,
            ns_per_event,
            allocs_per_event,
        }
    };
    let select = |ev: &NtpEvent| pool.select(ev.country, u64::from(ev.device.0), ev.t);
    let collect = || NtpCorpus::collect_with(world, SimTime::START, window, 1, &NoChaos);
    let corpus = collect();
    let n = events.len();
    vec![
        record("stream", n, &mut || {
            NtpEventStream::days(world, d0, d1).count() as u64
        }),
        record("select", n, &mut || {
            (events.iter())
                .map(|ev| select(ev).map_or(0, |vp| u64::from(vp.id)))
                .sum()
        }),
        record("exchange", n, &mut || {
            let mut answered = 0;
            for ev in &events {
                let Some(vp) = select(ev) else { continue };
                let (client, request) = NtpClient::start(NtpTimestamp::from_sim(ev.t, 0));
                let server = &mut servers[vp.id as usize];
                if let Ok(response) = server.handle(&request, ev.src, ev.t) {
                    let t4 = NtpTimestamp::from_sim(ev.t, 120_000_000);
                    answered += u64::from(client.finish(&response, t4).is_ok());
                }
            }
            answered
        }),
        record("collect", n, &mut || collect().len() as u64),
        record("dataset", corpus.len(), &mut || {
            corpus.dataset().len() as u64
        }),
    ]
}

/// The probe surface call by call (`WorldProbeRecord::call`), once per
/// target of the CAIDA campaign (64 512 routed /48s at default scale)
/// from its vantage point (id 1) at its start time, on one thread.
fn world_probe_records(world: &World, cfg: &ExperimentConfig) -> Vec<WorldProbeRecord> {
    let targets = caida_routed48_targets(&world.routed_prefixes(), cfg.caida.stride);
    let vp = world.vantage_points[1].as_index;
    let t = cfg.caida.start;
    let n = targets.len();
    let record = |call: &str, round: &mut dyn FnMut() -> u64| {
        let (ns_per_call, allocs_per_call) = per_item(n, round);
        WorldProbeRecord {
            call: call.into(),
            calls: n,
            ns_per_call,
            allocs_per_call,
        }
    };
    let answered = |ttl: u8| {
        (targets.iter())
            .filter(|&&dst| world.probe_ttl(vp, dst, ttl, t) != ProbeOutcome::NoResponse)
            .count() as u64
    };
    let devices = world.device_count() as u32;
    vec![
        record("route_hops", &mut || {
            (targets.iter())
                .map(|&dst| world.route_hops(vp, dst, t).len() as u64)
                .sum()
        }),
        record("probe_ttl_1", &mut || answered(1)),
        record("probe_ttl_64", &mut || answered(64)),
        record("resolve", &mut || {
            (targets.iter())
                .filter(|&&dst| world.resolve(dst, t) != Resolution::Vacant)
                .count() as u64
        }),
        record("contact_addr_at", &mut || {
            (0..n as u32)
                .filter_map(|i| {
                    let at = SimTime(t.as_secs() + 60 * u64::from(i));
                    world.contact_addr_at(DeviceId(i % devices), at)
                })
                .count() as u64
        }),
    ]
}

criterion_group!(
    benches,
    bench_entropy,
    bench_eui64,
    bench_sets,
    bench_lpm,
    bench_permutation,
    bench_ntp_codec,
    bench_icmp_codec
);

fn main() {
    benches();
    emit_par_kernels_json();
}
