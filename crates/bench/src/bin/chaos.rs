//! Chaos harness: the fault-injection invariants, runnable from CI.
//!
//! Three modes, selected by `V6_CHAOS_MODE`:
//!
//! * `transient` (default) — runs the pipeline fault-free, then under a
//!   transient-only fault plan at 1 and `V6_THREADS` workers, and
//!   asserts all three artifact digests are byte-identical. Prints one
//!   `CHAOS_OK …` line on success.
//! * `permanent` — runs the pipeline under a plan with permanent
//!   faults at 1 and `V6_THREADS` workers, asserts the loss reports
//!   agree, and prints the report (`LOST <unit> (<reason>)` lines) to
//!   stdout so CI can diff it against a golden file.
//! * `recovery` — drives a persistent [`v6serve::HitlistStore`]
//!   through a scripted publication run with write-path faults (torn
//!   writes, partial flushes, bit rot, torn checkpoints) injected from
//!   the seeded plan, kill-and-recovers after every failed publish and
//!   at fixed intervals (to surface silent bit rot), and asserts every
//!   recovery lands on a previously published content checksum. Prints
//!   one deterministic `RECOVER …` line per recovery and a final
//!   `RECOVERY_OK …` summary to stdout so CI can diff the block
//!   against a golden file.
//! * `wire` — drives a query workload through the [`v6wire`] front
//!   door over transports that lose, corrupt, and stall chunks per the
//!   seeded plan (fault sites `wire.c2s.g<N>.*` / `wire.s2c.g<N>.*`).
//!   The client reconnects and re-sends unanswered requests until
//!   every response matches the direct snapshot answer; the run
//!   asserts full convergence and that corruption is caught as typed
//!   protocol errors, then prints one `CHAOS_OK mode=wire …` line.
//! * `cluster` — drives a 5-node [`v6cluster::Cluster`] through six
//!   weekly publish waves with node-granularity chaos at
//!   `cluster.<node>.<seq>` sites (loss, stalls, and `Panic`s that
//!   kill the sending node), plus a scripted kill and a network
//!   partition with hedged reads under both. After healing, the run
//!   converges and asserts the invariant: all R replicas of every
//!   partition reach byte-identical content checksums, and no read
//!   answered below the committed epoch was labeled fresh. Stdout
//!   (`READ`/`EVENT`/`CONVERGED`/`CHAOS_OK` lines) is byte-
//!   deterministic per seed; CI diffs it against golden fixtures.
//! * `stream` — replays a deterministic sliding-window epoch sequence
//!   into a [`v6stream::StreamDriver`] whose deliveries fault at
//!   `stream.delta.<epoch>` sites (drops and duplicated retries per
//!   the seeded plan). Dropped deltas surface as gaps at the next
//!   delivery; the run resyncs from the materialized corpus, and at
//!   the end asserts every operator checksum equals a batch rebuild
//!   — the equivalence invariant under faulty delivery. Stdout
//!   (`STREAM`/`CHAOS_OK` lines) is byte-deterministic per seed; CI
//!   diffs it against golden fixtures at two seeds.
//!
//! Env knobs: `V6HL_SCALE`, `V6HL_SEED` (the usual), `V6_THREADS`,
//! `V6_CHAOS_SEED` (fault-plan seed; defaults 7 transient / 11
//! permanent / 5 recovery / 31 wire / 41 cluster / 13 stream),
//! `V6_CHAOS_MODE`.

use std::collections::HashSet;
use std::sync::Arc;

use v6bench::{config_for, seed_from_env, Scale};
use v6chaos::{FaultPlan, FaultSpec};
use v6hitlist::Experiment;
use v6serve::{HitlistStore, PublishError, SnapshotBuilder, StoreConfig};

fn main() {
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let threads = std::env::var("V6_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4);
    let mode = std::env::var("V6_CHAOS_MODE").unwrap_or_else(|_| "transient".into());

    match mode.as_str() {
        "transient" => {
            // The same rates the chaos equivalence tests pin down; the
            // seed (and with it the whole fault schedule) comes from
            // V6_CHAOS_SEED.
            let plan = FaultPlan::from_env(7, FaultSpec::transient(0.35));
            eprintln!(
                "[chaos] scale={} seed={seed} chaos_seed={}: fault-free baseline …",
                scale.name(),
                plan.seed()
            );
            let digest =
                Experiment::run_with_threads(config_for(scale, seed), threads).artifact_digest();
            for t in [1usize, threads] {
                eprintln!("[chaos] transient run at {t} thread(s) …");
                let run = Experiment::run_chaos(config_for(scale, seed), t, &plan);
                assert!(
                    run.converged(),
                    "transient-only plan lost work at {t} threads:\n{}",
                    run.loss
                );
                assert_eq!(
                    run.digest(),
                    Some(digest),
                    "transient chaos diverged from the fault-free digest at {t} threads"
                );
            }
            println!(
                "CHAOS_OK mode=transient chaos_seed={} threads=1,{threads} digest={digest:016x}",
                plan.seed()
            );
        }
        "permanent" => {
            let plan = FaultPlan::from_env(11, FaultSpec::with_permanent(0.25, 0.5));
            eprintln!(
                "[chaos] scale={} seed={seed} chaos_seed={}: permanent-fault runs …",
                scale.name(),
                plan.seed()
            );
            let r1 = Experiment::run_chaos(config_for(scale, seed), 1, &plan);
            let rn = Experiment::run_chaos(config_for(scale, seed), threads, &plan);
            assert_eq!(r1.loss, rn.loss, "loss report depends on the thread count");
            assert!(
                !r1.loss.is_empty(),
                "chaos_seed={} injects no permanent faults; pick another seed",
                plan.seed()
            );
            // The report to stdout, nothing else: CI diffs this block
            // against the golden loss file for the pinned seed.
            print!("{}", r1.loss);
            eprintln!(
                "[chaos] {} unit(s) lost, identically at 1 and {threads} threads",
                r1.loss.len()
            );
        }
        "recovery" => {
            // Write-path faults only, no stalls: the run must be fast
            // and its stdout byte-deterministic for the golden diff.
            let plan = Arc::new(FaultPlan::from_env(
                5,
                FaultSpec {
                    stall_rate: 0.0,
                    stall_ms: 0,
                    ..FaultSpec::with_permanent(0.45, 0.0)
                },
            ));
            eprintln!(
                "[chaos] seed={seed} chaos_seed={}: store kill-and-recover run …",
                plan.seed()
            );
            run_recovery(seed, plan);
        }
        "wire" => {
            // Aggressive mixed faults: loss, corruption, and short
            // stalls on both directions of every connection. Fresh
            // fault sites per reconnect generation keep permanent
            // sites from pinning a request forever.
            let plan = FaultPlan::from_env(
                31,
                FaultSpec {
                    stall_ms: 2,
                    ..FaultSpec::with_permanent(0.35, 0.3)
                },
            );
            eprintln!(
                "[chaos] seed={seed} chaos_seed={}: faulty-wire reconnect/retry run …",
                plan.seed()
            );
            run_wire(seed, plan);
        }
        "cluster" => {
            // Node-granularity chaos: a faulty chunk site drops or
            // stalls the chunk — or kills the sending node outright
            // (half of faulty sites panic). Rates stay low because a
            // single Panic costs a whole node a crash/recover cycle.
            let plan = FaultPlan::from_env(
                41,
                FaultSpec {
                    stall_ms: 1,
                    ..FaultSpec::with_permanent(0.08, 0.4)
                },
            );
            eprintln!(
                "[chaos] chaos_seed={}: cluster kill/partition/convergence run …",
                plan.seed()
            );
            run_cluster(plan);
        }
        "stream" => {
            // Drops and duplicated retries only — the two transport
            // behaviors a delta stream must survive. Stalls carry no
            // wall-clock cost here (a stall is modeled as a retried,
            // deduplicated re-delivery).
            let plan = FaultPlan::from_env(
                13,
                FaultSpec {
                    stall_rate: 0.25,
                    stall_ms: 1,
                    ..FaultSpec::with_permanent(0.3, 0.5)
                },
            );
            eprintln!(
                "[chaos] chaos_seed={}: faulty-delivery stream operator run …",
                plan.seed()
            );
            run_stream(plan);
        }
        other => {
            eprintln!(
                "[chaos] unknown V6_CHAOS_MODE {other:?} \
                 (use transient|permanent|recovery|wire|cluster|stream)"
            );
            std::process::exit(2);
        }
    }
}

/// How many cumulative publication steps the recovery run drives.
const RECOVERY_STEPS: u32 = 24;

/// Shard count for the recovery-run store (power of two).
const RECOVERY_SHARDS: usize = 4;

/// Cumulative deterministic snapshot: three seeded addresses per week,
/// weeks `0..=step`. Content depends only on `seed` and `step`, so the
/// checksums in the `RECOVER` lines are reproducible.
fn recovery_snapshot(seed: u64, step: u32) -> v6serve::Snapshot {
    let mut b = SnapshotBuilder::new("chaos-recovery", RECOVERY_SHARDS);
    for w in 0..=step {
        for i in 0..3u64 {
            let h = v6netsim::rng::hash64(seed ^ (u64::from(w) << 8 | i), b"chaos-recovery-addr");
            b.add_bits((0x2001_0db8u128 << 96) | u128::from(h & 0xffff_ffff), w);
        }
    }
    b.build()
}

/// Kills the store (the caller already dropped it with the injected
/// damage still on disk), recovers, asserts the crash invariant —
/// the recovered checksum equals some previously published epoch —
/// and prints the deterministic `RECOVER` line.
fn recover_store(
    cfg: &StoreConfig,
    plan: &Arc<FaultPlan>,
    published: &HashSet<u64>,
    step: u32,
    cause: &str,
) -> HitlistStore {
    let (store, report) =
        HitlistStore::recover_with(cfg.clone(), plan.clone()).expect("recovery must never fail");
    let checksum = store.snapshot().content_checksum();
    assert!(
        published.contains(&checksum),
        "step {step}: recovered checksum {checksum:#018x} was never published"
    );
    println!(
        "RECOVER step={step} cause={cause} epoch={} checksum={checksum:016x} replayed={} \
         truncated={} quarantined={} checkpoint={}",
        report.recovered_epoch,
        report.replayed,
        report.truncated_bytes,
        report.quarantined,
        report
            .checkpoint_epoch
            .map_or("-".into(), |e| e.to_string()),
    );
    store
}

/// Requests the wire chaos run must converge on.
const WIRE_REQUESTS: usize = 48;

/// Reconnect generations before the wire run gives up (far above what
/// any seed needs; fresh fault sites per generation guarantee progress
/// in expectation, and a generation is just an in-memory duplex).
const WIRE_MAX_GENERATIONS: u64 = 512;

/// The faulty-transport reconnect/retry loop behind
/// `V6_CHAOS_MODE=wire`: every wire answer must equal the direct
/// snapshot answer, no matter what the transport does to the bytes.
fn run_wire(seed: u64, plan: FaultPlan) {
    use v6wire::{
        serve_request, AdmissionConfig, Fabric, OnPanic, Request, WireClient, WireServer,
    };

    // A seeded snapshot served in-process.
    let store = Arc::new(HitlistStore::new("chaos-wire", RECOVERY_SHARDS));
    let mut b = SnapshotBuilder::new("chaos-wire", RECOVERY_SHARDS);
    let mut probes = Vec::new();
    for i in 0..256u64 {
        let h = v6netsim::rng::hash64(seed ^ i, b"chaos-wire-addr");
        let bits = (0x2001_0db8u128 << 96) | u128::from(h);
        b.add_bits(bits, (i % 5) as u32);
        probes.push(bits);
    }
    store.publish(b.build()).expect("publish");
    let snap = store.snapshot();
    let server = WireServer::new(
        v6serve::QueryEngine::new(store),
        AdmissionConfig::default(),
        0,
    );

    // The workload, with every expected answer computed directly.
    let requests: Vec<Request> = (0..WIRE_REQUESTS)
        .map(|i| match i % 4 {
            0 => Request::Lookup {
                addr: probes[i * 5 % probes.len()],
            },
            1 => Request::Membership {
                addr: probes[i * 3 % probes.len()] ^ u128::from(i as u64 % 2),
            },
            2 => Request::NewSince { week: i as u64 % 6 },
            _ => Request::Status,
        })
        .collect();
    let expected: Vec<_> = requests
        .iter()
        .map(|r| serve_request(&snap, r.clone()))
        .collect();

    // Both directions of every connection corrupt on `Panic`.
    let fabric = Fabric::new("wire", Arc::new(plan.clone()), &v6obs::Registry::new());
    let mut pending: Vec<usize> = (0..requests.len()).collect();
    let mut generations = 0u64;
    let mut resent = 0u64;
    while !pending.is_empty() {
        assert!(
            generations < WIRE_MAX_GENERATIONS,
            "wire run failed to converge: {} request(s) unanswered after {generations} \
             reconnects",
            pending.len()
        );
        // Fresh connection, fresh fault sites on both directions.
        let (c2s, s2c) = (format!("c2s.g{generations}"), format!("s2c.g{generations}"));
        let faulty_client = fabric.link(&c2s, &s2c, Some(OnPanic::Corrupt));
        let mut faulty_server = fabric.link(&s2c, &c2s, Some(OnPanic::Corrupt));
        let mut conn = server.open_connection(1_000 + generations);
        let mut client = WireClient::connect(faulty_client, 0).expect("connect");
        let mut by_id = std::collections::HashMap::new();
        // One request per round: a corrupted chunk poisons the whole
        // connection (all undecoded frames with it), so pipelining the
        // backlog in one burst would forfeit every in-flight request to
        // the first flipped bit. Interleaving bounds the blast radius
        // of each fault to the current generation's remainder. The
        // extra drain rounds at the end let stalled chunks release.
        let mut queue: Vec<usize> = pending.clone();
        queue.reverse();
        let rounds = queue.len() as u64 + 8;
        'rounds: for round in 0..rounds {
            let now = round * 1_000;
            if let Some(idx) = queue.pop() {
                match client.send(&requests[idx], now) {
                    Ok(id) => {
                        by_id.insert(id, idx);
                        resent += 1;
                    }
                    Err(_) => break, // transport closed: reconnect
                }
            }
            if conn.pump(&mut faulty_server, now).is_err() {
                break;
            }
            match client.poll(now) {
                Ok(responses) => {
                    for (id, resp) in responses {
                        let Some(idx) = by_id.remove(&id) else {
                            continue;
                        };
                        assert_eq!(
                            resp, expected[idx],
                            "wire answer diverged from the direct snapshot answer \
                             for request {idx}"
                        );
                        pending.retain(|&p| p != idx);
                    }
                    if pending.is_empty() {
                        break 'rounds;
                    }
                }
                Err(_) => break, // corruption or close detected: reconnect
            }
        }
        generations += 1;
    }

    let metrics = server.metrics().registry().snapshot();
    let protocol_errors = metrics.counter("wire.conn.protocol_errors").unwrap_or(0);
    println!(
        "CHAOS_OK mode=wire chaos_seed={} requests={WIRE_REQUESTS} verified={WIRE_REQUESTS} \
         reconnects={generations} sent={resent} protocol_errors={protocol_errors}",
        plan.seed(),
    );
    eprintln!(
        "[chaos] wire converged after {generations} generation(s); every answer matched the \
         direct snapshot answer"
    );
}

/// Weekly publish waves the cluster chaos run drives.
const CLUSTER_WEEKS: u64 = 6;

/// New addresses per partition per week.
const CLUSTER_ADDRS_PER_WEEK: u64 = 4;

/// A deterministic address that routes to partition `pid`: seeded
/// candidates are rejection-sampled against [`v6cluster::partition_of`]
/// (the variable bits sit inside the top /48, so sampling converges in
/// a handful of draws).
fn cluster_addr(seed: u64, pid: u32, partitions: u32, tag: u64) -> u128 {
    for j in 0u64..4096 {
        let h = v6netsim::rng::hash64(seed ^ tag ^ (j << 52), b"cluster-addr");
        let bits = (0x2001u128 << 112) | (u128::from(h) << 40) | u128::from(tag & 0xff_ffff);
        if v6cluster::partition_of(bits, partitions) == pid {
            return bits;
        }
    }
    unreachable!("rejection sampling must land within 4096 draws")
}

/// The cumulative content of partition `pid` as of `week`.
fn cluster_week_entries(seed: u64, pid: u32, partitions: u32, week: u64) -> Vec<(u128, u32)> {
    let mut entries = Vec::new();
    for w in 1..=week {
        for i in 0..CLUSTER_ADDRS_PER_WEEK {
            let tag = (u64::from(pid) << 40) | (w << 8) | i;
            entries.push((cluster_addr(seed, pid, partitions, tag), w as u32));
        }
    }
    entries
}

/// One hedged-read sweep: a known week-1 address per partition plus
/// one never-published probe. Prints a deterministic `READ` line each.
fn cluster_read_phase(cluster: &mut v6cluster::Cluster, seed: u64, partitions: u32, label: &str) {
    for pid in 0..partitions {
        let tag = (u64::from(pid) << 40) | (1 << 8);
        let out = cluster.read(cluster_addr(seed, pid, partitions, tag));
        println!(
            "READ phase={label} p{pid} status={} present={} epoch={} committed={} probes={}",
            out.status, out.present, out.epoch, out.committed_epoch, out.probes
        );
    }
    let absent = cluster.read(cluster_addr(seed, 0, partitions, 0xab5e17 << 32));
    println!(
        "READ phase={label} p0 status={} present={} (absent probe)",
        absent.status, absent.present
    );
}

/// The kill/partition/convergence run behind `V6_CHAOS_MODE=cluster`.
fn run_cluster(plan: FaultPlan) {
    use v6cluster::{Cluster, ClusterConfig, ReadStatus};

    let chaos_seed = plan.seed();
    let cfg = ClusterConfig::new(5, 3, chaos_seed);
    let partitions = cfg.partitions;
    let mut cluster = Cluster::with_chaos(cfg, Arc::new(plan)).expect("cluster scratch dirs");

    for week in 1..=CLUSTER_WEEKS {
        for pid in 0..partitions {
            // Deferred publishes (every replica down) self-heal: the
            // content is cumulative, so next week's wave carries it.
            let _ = cluster.publish(
                pid,
                week,
                cluster_week_entries(chaos_seed, pid, partitions, week),
                vec![],
            );
        }
        for _ in 0..3 {
            cluster.pump_round();
        }
        match week {
            2 => {
                // A scripted kill on top of whatever chaos decides.
                cluster.kill("n1");
                cluster.pump_round();
            }
            3 => {
                // Cut n3/n4 off from the majority (and the client).
                let groups: std::collections::BTreeMap<String, u8> =
                    [("n0", 0u8), ("n1", 0), ("n2", 0), ("n3", 1), ("n4", 1)]
                        .into_iter()
                        .map(|(n, g)| (n.to_string(), g))
                        .collect();
                cluster.set_partition(&groups);
                cluster_read_phase(&mut cluster, chaos_seed, partitions, "partitioned");
            }
            5 => {
                cluster.heal();
                cluster_read_phase(&mut cluster, chaos_seed, partitions, "healed");
            }
            _ => {}
        }
    }

    let report = cluster.converge(256);
    for event in cluster.events() {
        println!("EVENT {event}");
    }
    print!("{report}");

    let audit = cluster.read_audit();
    let count = |status: ReadStatus| audit.iter().filter(|r| r.status == status).count();
    let kills = cluster
        .events()
        .iter()
        .filter(|e| e.contains(": KILL "))
        .count();
    let restarts = cluster
        .events()
        .iter()
        .filter(|e| e.contains(": RESTART "))
        .count();
    assert!(report.converged, "cluster failed to converge:\n{report}");
    assert_eq!(
        cluster.unlabeled_stale_reads(),
        0,
        "a stale answer was labeled fresh"
    );
    println!(
        "CHAOS_OK mode=cluster chaos_seed={chaos_seed} reads={} fresh={} degraded={} \
         unavailable={} unlabeled_stale=0 kills={kills} restarts={restarts} converge_rounds={}",
        audit.len(),
        count(ReadStatus::Fresh),
        count(ReadStatus::Degraded),
        count(ReadStatus::Unavailable),
        report.rounds
    );
    eprintln!(
        "[chaos] cluster converged after {} round(s); {kills} kill(s), {restarts} restart(s), \
         every replica byte-identical",
        report.rounds
    );
}

/// Epoch publications the stream chaos run replays.
const STREAM_EPOCHS: u64 = 32;

/// New addresses per epoch; each lives for [`STREAM_WINDOW`] epochs,
/// so every delta carries both adds and removals.
const STREAM_ADDRS_PER_EPOCH: u64 = 6;
const STREAM_WINDOW: u64 = 10;

/// A deterministic stream address: seeded into one of three routed
/// /32s (or unrouted space), mixing EUI-64 and opaque IIDs so every
/// operator has behavior on the content.
fn stream_chaos_addr(tag: u64) -> u128 {
    let h = v6netsim::rng::hash64(tag, b"stream-chaos-addr");
    let prefix: u128 = [0x2a00_0001, 0x2a00_0002, 0x2a00_0003, 0x3fff_0001][(h % 4) as usize];
    let subnet = u128::from((h >> 8) % 4);
    let iid = if h.is_multiple_of(3) {
        let mac = v6addr::Mac::from_u64(0x0050_5600_0000 | ((h >> 32) % 64));
        u128::from(v6addr::Iid::from_mac(mac).as_u64())
    } else {
        u128::from(h | 1)
    };
    (prefix << 96) | (subnet << 64) | iid
}

/// The materialized corpus at `epoch`: the sliding window of addresses
/// introduced in epochs `(epoch - STREAM_WINDOW, epoch]`, tagged with
/// their introduction week, sorted and deduped.
fn stream_corpus(epoch: u64) -> Vec<(u128, u32)> {
    let mut entries: Vec<(u128, u32)> = (epoch.saturating_sub(STREAM_WINDOW - 1).max(1)..=epoch)
        .flat_map(|w| {
            (0..STREAM_ADDRS_PER_EPOCH).map(move |i| (stream_chaos_addr((w << 16) | i), w as u32))
        })
        .collect();
    entries.sort_unstable();
    entries.dedup_by_key(|&mut (bits, _)| bits);
    entries
}

/// The faulty-delivery operator run behind `V6_CHAOS_MODE=stream`:
/// the equivalence invariant must hold at the end no matter which
/// deltas the transport dropped or re-delivered.
fn run_stream(plan: FaultPlan) {
    use v6stream::{fold_content, Analytics, AsTag, Offer, PrefixAsTable, SharedResolver};

    let chaos_seed = plan.seed();
    let resolver: SharedResolver = Arc::new(PrefixAsTable::new(
        [(1u16, *b"DE"), (2, *b"DE"), (3, *b"JP")]
            .into_iter()
            .map(|(index, country)| {
                (
                    (0x2a00_0000u128 + u128::from(index)) << 96,
                    32,
                    AsTag {
                        index,
                        country: u16::from_be_bytes(country),
                    },
                )
            })
            .collect(),
    ));
    let mut driver = v6stream::StreamDriver::new(resolver.clone()).with_chaos(Arc::new(plan));

    let mut state = v6store::EpochState::default();
    let (mut applied, mut dropped, mut gaps, mut resyncs) = (0u64, 0u64, 0u64, 0u64);
    for epoch in 1..=STREAM_EPOCHS {
        let entries = stream_corpus(epoch);
        let checksum = entries
            .iter()
            .fold(0u64, |acc, &(bits, week)| fold_content(acc, bits, week));
        let delta = v6store::replica::delta_between(
            &state,
            &v6store::EpochView {
                epoch,
                week: epoch,
                content_checksum: checksum,
                missing_shards: &[],
                entries: &entries,
                aliases: &[],
            },
        );
        v6store::replica::apply(&mut state, &delta);

        let offer = driver.feed(&delta);
        let outcome = match offer {
            Offer::Applied(n) => {
                applied += 1;
                format!("applied({n})")
            }
            Offer::Dropped => {
                dropped += 1;
                "dropped".into()
            }
            Offer::Gap | Offer::Lagging => {
                gaps += 1;
                resyncs += 1;
                driver.resync(epoch, epoch, &entries);
                "gap->resync".into()
            }
            Offer::Duplicate => "duplicate".into(),
        };
        println!(
            "STREAM epoch={epoch} corpus={} outcome={outcome} driver_epoch={} checksum={:016x}",
            entries.len(),
            driver.epoch(),
            driver.content_checksum(),
        );
    }

    // A dropped final delta leaves the driver honestly behind; one
    // authoritative resync models the periodic reconciliation any
    // deployment runs. Never silent: the lag was visible above.
    let final_entries = stream_corpus(STREAM_EPOCHS);
    if driver.epoch() != STREAM_EPOCHS {
        resyncs += 1;
        driver.resync(STREAM_EPOCHS, STREAM_EPOCHS, &final_entries);
        println!("STREAM final resync epoch={STREAM_EPOCHS}");
    }
    assert!(!driver.is_lagging(), "driver still lagging after resync");

    // The equivalence invariant, under faulty delivery.
    let batch = Analytics::from_entries(resolver, &final_entries);
    for ((name, streamed), (_, batched)) in driver
        .analytics()
        .checksums()
        .iter()
        .zip(batch.checksums().iter())
    {
        assert_eq!(
            streamed, batched,
            "operator {name} diverged from the batch rebuild"
        );
    }
    println!(
        "CHAOS_OK mode=stream chaos_seed={chaos_seed} epochs={STREAM_EPOCHS} applied={applied} \
         dropped={dropped} gaps={gaps} resyncs={resyncs} operators=4 equivalent=true \
         checksum={:016x}",
        driver.content_checksum(),
    );
    eprintln!(
        "[chaos] stream survived {dropped} dropped delta(s) and {gaps} gap(s); every operator \
         checksum equals the batch rebuild"
    );
}

/// The kill-and-recover loop behind `V6_CHAOS_MODE=recovery`.
fn run_recovery(seed: u64, plan: Arc<FaultPlan>) {
    let dir = v6store::scratch_dir("chaos-recovery");
    let cfg = StoreConfig::new(&dir).checkpoint_every(4).with_fsync(false);
    let mut store =
        HitlistStore::persistent_with("chaos-recovery", RECOVERY_SHARDS, cfg.clone(), plan.clone())
            .expect("create durable store");

    let mut published: HashSet<u64> = HashSet::new();
    published.insert(store.snapshot().content_checksum()); // epoch 0: empty
    let (mut publishes, mut failures, mut recoveries) = (0u64, 0u64, 0u64);

    for step in 1..=RECOVERY_STEPS {
        let snap = recovery_snapshot(seed, step);
        let checksum = snap.content_checksum();
        match store.publish(snap) {
            Ok(_) => {
                publishes += 1;
                published.insert(checksum);
            }
            Err(PublishError::Persistence(err)) => {
                failures += 1;
                let cause = if err.contains("torn write") {
                    "torn-write"
                } else if err.contains("partial flush") {
                    "partial-flush"
                } else {
                    "io"
                };
                // Crash with the damage on disk, then recover.
                recoveries += 1;
                drop(store);
                store = recover_store(&cfg, &plan, &published, step, cause);
                // Retry until this step's content lands. Every failed
                // attempt burns an epoch (and self-heals its torn
                // bytes), so the loop always terminates.
                let mut attempts = 0u32;
                loop {
                    attempts += 1;
                    assert!(attempts <= 64, "step {step}: 64 failed publish attempts");
                    match store.publish(recovery_snapshot(seed, step)) {
                        Ok(_) => {
                            publishes += 1;
                            published.insert(checksum);
                            break;
                        }
                        Err(PublishError::Persistence(_)) => failures += 1,
                        Err(other) => panic!("step {step}: unexpected publish error: {other}"),
                    }
                }
            }
            Err(other) => panic!("step {step}: unexpected publish error: {other}"),
        }
        // Periodic forced kill: silent bit rot never fails a publish,
        // so only an unprompted crash-and-recover can surface it.
        if step % 7 == 0 {
            recoveries += 1;
            drop(store);
            store = recover_store(&cfg, &plan, &published, step, "kill");
        }
    }

    let final_checksum = store.snapshot().content_checksum();
    println!(
        "RECOVERY_OK chaos_seed={} steps={RECOVERY_STEPS} publishes={publishes} \
         failures={failures} recoveries={recoveries} epoch={} checksum={final_checksum:016x}",
        plan.seed(),
        store.epoch(),
    );
    eprintln!(
        "[chaos] {recoveries} recoveries over {RECOVERY_STEPS} steps, \
         {failures} injected publish failures, all landed on published epochs"
    );
    std::fs::remove_dir_all(&dir).ok();
}
