//! Cluster acceptance: the PR-9 convergence invariant, end to end.
//!
//! A seeded run drives the full multi-node stack — weekly publishes
//! replicated as framed deltas over `v6wire` links, a node death and
//! crash-recovery restart, a network partition that is later healed —
//! and then pins the two contracts the cluster exists to keep:
//!
//! 1. **Convergence**: once faults heal, every replica of every
//!    partition reaches a byte-identical epoch `content_checksum`.
//! 2. **Honest staleness**: every hedged read answered below the
//!    committed epoch was labeled degraded, never fresh.

use std::collections::BTreeMap;
use std::sync::Arc;

use ipv6_hitlists::chaos::{FaultPlan, FaultSpec};
use ipv6_hitlists::cluster::{partition_of, Cluster, ClusterConfig, PublishOutcome, ReadStatus};
use ipv6_hitlists::netsim::rng::hash64;
use ipv6_hitlists::stream::fold_content;

/// Rejection-samples an address that routes to partition `pid`: the
/// variable bits live inside the top /48 (the partition key), so a
/// handful of draws always lands.
fn addr_in(seed: u64, pid: u32, partitions: u32, tag: u64) -> u128 {
    for j in 0u64..4096 {
        let h = hash64(seed ^ tag ^ (j << 52), b"cluster-e2e-addr");
        let bits = (0x2001u128 << 112) | (u128::from(h) << 40) | u128::from(tag & 0xffff);
        if partition_of(bits, partitions) == pid {
            return bits;
        }
    }
    unreachable!("rejection sampling must land within 4096 draws")
}

/// Cumulative weekly content for one partition.
fn entries_through(seed: u64, pid: u32, partitions: u32, week: u64) -> Vec<(u128, u32)> {
    (1..=week)
        .flat_map(|w| (0..4u64).map(move |i| (w, i)))
        .map(|(w, i)| {
            let tag = (u64::from(pid) << 20) | (w << 8) | i;
            (addr_in(seed, pid, partitions, tag), w as u32)
        })
        .collect()
}

/// Publishes `week` to every partition and settles a few rounds;
/// returns the partitions whose publish committed.
fn publish_week(cluster: &mut Cluster, seed: u64, week: u64) -> Vec<u32> {
    let partitions = cluster.config().partitions;
    let mut committed = Vec::new();
    for pid in 0..partitions {
        if let PublishOutcome::Committed { .. } = cluster.publish(
            pid,
            week,
            entries_through(seed, pid, partitions, week),
            vec![],
        ) {
            committed.push(pid);
        }
    }
    for _ in 0..3 {
        cluster.pump_round();
    }
    committed
}

/// The client rides with n0–n2; n3 and n4 are cut off.
fn split_groups() -> BTreeMap<String, u8> {
    [("n0", 0u8), ("n1", 0), ("n2", 0), ("n3", 1), ("n4", 1)]
        .into_iter()
        .map(|(n, g)| (n.to_string(), g))
        .collect()
}

#[test]
fn node_death_and_healed_partition_converge_with_honest_reads() {
    let seed = 0xc1u64;
    let mut cluster = Cluster::new(ClusterConfig::new(5, 3, seed)).expect("scratch dirs");
    let partitions = cluster.config().partitions;

    // Two healthy weeks, then a node dies mid-campaign.
    assert_eq!(
        publish_week(&mut cluster, seed, 1).len(),
        partitions as usize
    );
    publish_week(&mut cluster, seed, 2);
    cluster.kill("n1");
    cluster.pump_round();

    // Publishes continue around the corpse; then the survivors are
    // split from the rest (the client rides with group 0).
    publish_week(&mut cluster, seed, 3);
    cluster.set_partition(&split_groups());
    publish_week(&mut cluster, seed, 4);

    // Reads under the partition: whatever comes back, an answer below
    // the committed epoch must carry the degraded label.
    let mut answered = 0;
    for pid in 0..partitions {
        let out = cluster.read(addr_in(
            seed,
            pid,
            partitions,
            (u64::from(pid) << 20) | (1 << 8),
        ));
        if out.status != ReadStatus::Unavailable {
            answered += 1;
            if out.epoch < out.committed_epoch {
                assert_eq!(
                    out.status,
                    ReadStatus::Degraded,
                    "stale answer for p{pid} not labeled degraded"
                );
            }
        }
    }
    assert!(answered > 0, "partitioned cluster answered nothing at all");

    // Heal, publish once more, converge: every replica byte-identical.
    cluster.heal();
    publish_week(&mut cluster, seed, 5);
    let report = cluster.converge(256);
    assert!(report.converged, "replicas did not converge:\n{report}");
    for p in &report.partitions {
        assert!(p.in_sync, "p{} replicas disagree after heal", p.partition);
        assert_eq!(p.replicas.len(), 3, "p{} lost a replica", p.partition);
    }

    // The audited invariant, over every hedged read the run issued.
    assert_eq!(
        cluster.unlabeled_stale_reads(),
        0,
        "a stale answer was labeled fresh"
    );

    // The kill really went through crash recovery.
    let events = cluster.events();
    assert!(
        events.iter().any(|e| e.contains(": KILL n1")),
        "no kill event"
    );
    assert!(
        events.iter().any(|e| e.contains(": RESTART n1")),
        "n1 never restarted through recovery"
    );

    // After convergence a fresh read serves the committed epoch.
    let out = cluster.read(addr_in(seed, 0, partitions, 1 << 8));
    assert_eq!(out.status, ReadStatus::Fresh);
    assert!(out.present, "week-1 address lost after convergence");
    assert_eq!(out.epoch, out.committed_epoch);
}

/// One chaotic run's shape: its fault plan and fabric, and whether
/// it adds a kill of n1 at week 2, a partition at week 3 and a heal at
/// week 5, with hedged reads under the partition and after the heal.
struct ChaosRun {
    seed: u64,
    nodes: usize,
    weeks: u64,
    fault_rate: f64,
    kill_and_partition: bool,
}

/// One hedged read of a known week-1 address per partition, plus one
/// address that was never published.
fn read_sweep(cluster: &mut Cluster, seed: u64) {
    let partitions = cluster.config().partitions;
    for pid in 0..partitions {
        cluster.read(addr_in(
            seed,
            pid,
            partitions,
            (u64::from(pid) << 20) | (1 << 8),
        ));
    }
    cluster.read(addr_in(seed, 0, partitions, 0xab5e << 20));
}

/// Drives `run`, converges, and checks the run against a model of what
/// was committed: every partition's committed checksum is the
/// [`fold_content`] of the entries of the last week that committed
/// there, every replica is in sync, no stale read was labeled fresh,
/// and every killed node restarted. Returns the degraded reads.
fn converge_chaotic_run(run: &ChaosRun) -> usize {
    let seed = run.seed;
    let plan = FaultPlan::new(
        seed,
        FaultSpec {
            stall_ms: 1,
            ..FaultSpec::with_permanent(run.fault_rate, 0.4)
        },
    );
    let cfg = ClusterConfig::new(run.nodes, 3, seed);
    let partitions = cfg.partitions;
    let mut cluster = Cluster::with_chaos(cfg, Arc::new(plan)).expect("scratch dirs");

    let mut last_committed = BTreeMap::new();
    for week in 1..=run.weeks {
        // Deferred publishes self-heal: content is cumulative, so the
        // next week's wave carries it.
        for pid in publish_week(&mut cluster, seed, week) {
            last_committed.insert(pid, week);
        }
        if run.kill_and_partition {
            match week {
                2 => {
                    cluster.kill("n1");
                    cluster.pump_round();
                }
                3 => {
                    cluster.set_partition(&split_groups());
                    read_sweep(&mut cluster, seed);
                }
                5 => {
                    cluster.heal();
                    read_sweep(&mut cluster, seed);
                }
                _ => {}
            }
        }
    }

    let report = cluster.converge(512);
    assert!(report.converged, "seed {seed}: did not converge:\n{report}");
    assert_eq!(report.partitions.len(), partitions as usize, "seed {seed}");
    for p in &report.partitions {
        let week = *last_committed
            .get(&p.partition)
            .unwrap_or_else(|| panic!("seed {seed}: p{} never committed", p.partition));
        let model = entries_through(seed, p.partition, partitions, week)
            .into_iter()
            .fold(0, |acc, (bits, w)| fold_content(acc, bits, w));
        assert_eq!(
            p.checksum, model,
            "seed {seed}: p{} committed content is not week {week}'s",
            p.partition
        );
        assert!(p.in_sync, "seed {seed}: p{} replicas disagree", p.partition);
    }
    assert_eq!(
        cluster.unlabeled_stale_reads(),
        0,
        "seed {seed}: a stale answer was labeled fresh"
    );
    let events = |kind: &str| cluster.events().iter().filter(|e| e.contains(kind)).count();
    assert_eq!(
        events(": KILL "),
        events(": RESTART "),
        "seed {seed}: a killed node never restarted"
    );
    let audit = cluster.read_audit();
    audit
        .iter()
        .filter(|r| r.status == ReadStatus::Degraded)
        .count()
}

#[test]
fn chaotic_fabric_still_converges_byte_identical() {
    // A chaotic fabric alone, then the kill/partition/heal schedule on
    // top of it at a sweep of plan seeds.
    let fabric_only = ChaosRun {
        seed: 0x5eed,
        nodes: 4,
        weeks: 4,
        fault_rate: 0.10,
        kill_and_partition: false,
    };
    let scheduled = [41, 97].into_iter().chain(1..=16).map(|seed| ChaosRun {
        seed,
        nodes: 5,
        weeks: 6,
        fault_rate: 0.08,
        kill_and_partition: true,
    });
    let degraded: usize = std::iter::once(fabric_only)
        .chain(scheduled)
        .map(|run| converge_chaotic_run(&run))
        .sum();
    // Non-vacuity: some read was stale or under quorum, and said so.
    assert!(degraded > 0, "no run ever answered a degraded read");
}
