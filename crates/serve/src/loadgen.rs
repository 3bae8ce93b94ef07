//! Deterministic load harness for the serving path.
//!
//! Replays a seeded mix of queries from N client threads against a
//! [`QueryEngine`], measuring throughput and per-query latency (log2
//! histogram → p50/p90/p99). The address stream derives entirely from
//! `(seed, thread index, op index)` via the workspace PRNG, so two runs
//! with the same spec issue the same queries in the same per-thread
//! order — only the timing varies.
//!
//! The harness doubles as a correctness check under concurrent
//! publication: addresses drawn from the "present" pool were sampled
//! from the snapshot at start, and because the hitlist only grows,
//! every later epoch must still contain them. Any miss is counted as a
//! verification failure, and the integrity of the snapshot serving the
//! final query is re-verified.

use std::net::Ipv6Addr;
use std::time::Instant;

use v6addr::Prefix;
use v6netsim::rng::{hash64, Rng};

use crate::query::QueryEngine;
use crate::snapshot::Snapshot;

/// Relative weights of the query kinds in the generated stream.
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    /// Exact membership probes.
    pub membership: u32,
    /// Alias-filtered membership probes.
    pub filtered: u32,
    /// Full lookups.
    pub lookup: u32,
    /// Per-/48 density queries.
    pub density: u32,
    /// Weekly-diff queries.
    pub diff: u32,
    /// Batched lookups (each counts `batch_size` queries).
    pub batch: u32,
}

impl Default for QueryMix {
    fn default() -> Self {
        QueryMix {
            membership: 40,
            filtered: 15,
            lookup: 25,
            density: 10,
            diff: 5,
            batch: 5,
        }
    }
}

impl QueryMix {
    fn weights(&self) -> [u32; 6] {
        [
            self.membership,
            self.filtered,
            self.lookup,
            self.density,
            self.diff,
            self.batch,
        ]
    }
}

/// One load-generation run.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Total queries across all threads (batch addresses counted once
    /// per address).
    pub queries: u64,
    /// Client threads.
    pub threads: usize,
    /// Seed for the deterministic query stream.
    pub seed: u64,
    /// Fraction of single-address probes drawn from the known-present
    /// pool (the rest are pseudorandom and almost surely absent).
    pub hit_fraction: f64,
    /// Addresses per batched lookup.
    pub batch_size: usize,
    /// Query-kind weights.
    pub mix: QueryMix,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            queries: 1_000_000,
            threads: 4,
            seed: 2022,
            hit_fraction: 0.5,
            batch_size: 16,
            mix: QueryMix::default(),
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries actually issued (>= spec due to batch rounding).
    pub queries: u64,
    /// Wall-clock for the whole run.
    pub elapsed_secs: f64,
    /// Aggregate throughput.
    pub qps: f64,
    /// Median per-operation latency (log2-bucket upper bound).
    pub p50_ns: u64,
    /// 90th-percentile latency.
    pub p90_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Slowest bucket observed.
    pub max_ns: u64,
    /// Probes that found their address present.
    pub present_hits: u64,
    /// Known-present addresses reported absent (must be 0: snapshots
    /// only grow, so a miss means a torn or corrupted read).
    pub verification_failures: u64,
    /// Epoch at run start.
    pub first_epoch: u64,
    /// Epoch serving the final observation.
    pub last_epoch: u64,
    /// Operations answered by an epoch newer than `first_epoch` (proof
    /// the run overlapped a publication).
    pub queries_after_publish: u64,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} queries in {:.3} s  ->  {:.0} queries/s",
            self.queries, self.elapsed_secs, self.qps
        )?;
        writeln!(
            f,
            "latency p50 <= {} ns, p90 <= {} ns, p99 <= {} ns, max <= {} ns",
            self.p50_ns, self.p90_ns, self.p99_ns, self.max_ns
        )?;
        write!(
            f,
            "epochs {}..{}, {} ops after publish, {} hits, {} verification failures",
            self.first_epoch,
            self.last_epoch,
            self.queries_after_publish,
            self.present_hits,
            self.verification_failures
        )
    }
}

/// Log2-bucketed latency histogram: bucket `i` holds counts for
/// durations in `(2^(i-1), 2^i]` nanoseconds.
#[derive(Debug, Clone)]
struct Histogram {
    buckets: [u64; 64],
    count: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        let bucket = (64 - (ns | 1).leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Upper bound of the bucket containing the q-quantile observation.
    fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << 63
    }

    fn max_bucket(&self) -> u64 {
        match self.buckets.iter().rposition(|&n| n > 0) {
            Some(i) => 1u64 << i,
            None => 0,
        }
    }
}

struct WorkerResult {
    hist: Histogram,
    issued: u64,
    hits: u64,
    failures: u64,
    after_publish: u64,
    last_epoch: u64,
}

/// One generated operation, fully materialized: the address(es) to
/// query and whether each was drawn from the known-present pool.
///
/// The stream of these is a pure function of `(seed, thread index)` —
/// extracting it from the worker loop lets other harnesses (wire-level
/// tests, cross-host reproductions) replay the exact request sequence a
/// load run would issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenRequest {
    /// Exact membership probe.
    Membership {
        /// The address to probe.
        addr: Ipv6Addr,
        /// Drawn from the known-present pool (so absence is a failure).
        from_present: bool,
    },
    /// Alias-filtered membership probe.
    MembershipUnaliased {
        /// The address to probe.
        addr: Ipv6Addr,
    },
    /// Full lookup.
    Lookup {
        /// The address to look up.
        addr: Ipv6Addr,
        /// Drawn from the known-present pool.
        from_present: bool,
    },
    /// Per-/48 density query around a drawn address.
    Density {
        /// The /48 containing the drawn address.
        prefix: Prefix,
        /// The drawn address was from the known-present pool.
        from_present: bool,
    },
    /// Weekly-diff query.
    NewSince {
        /// The study week bound.
        week: u64,
    },
    /// Batched lookup.
    Batch {
        /// The batch addresses, in draw order.
        addrs: Vec<Ipv6Addr>,
        /// How many were drawn from the known-present pool (lower bound
        /// on the batch's `present` answer).
        expect_present: u64,
    },
}

impl GenRequest {
    /// Queries this operation counts for (batch addresses counted
    /// individually, matching [`LoadReport::queries`]).
    pub fn cost(&self) -> u64 {
        match self {
            GenRequest::Batch { addrs, .. } => addrs.len() as u64,
            _ => 1,
        }
    }
}

/// The deterministic request stream one load-generation worker follows.
///
/// Infinite: call [`RequestStream::next_request`] (or iterate) as long
/// as needed. Two streams built from the same `(spec.seed, thread
/// index, present pool, max_week)` yield identical sequences — the
/// property `loadgen` runs rely on for reproducibility and that
/// `crates/serve/tests` pins across hosts.
#[derive(Debug, Clone)]
pub struct RequestStream<'a> {
    rng: Rng,
    weights: [u32; 6],
    weight_total: u64,
    present: &'a [u128],
    hit_fraction: f64,
    batch_size: usize,
    max_week: u64,
}

impl<'a> RequestStream<'a> {
    /// The stream worker `thread_index` follows under `spec`.
    ///
    /// `present` is the sampled known-present pool; `max_week` is the
    /// snapshot's latest study week (bounds the `NewSince` draws).
    pub fn new(spec: &LoadSpec, present: &'a [u128], max_week: u64, thread_index: usize) -> Self {
        let weights = spec.mix.weights();
        RequestStream {
            rng: Rng::new(hash64(
                spec.seed,
                format!("loadgen-{thread_index}").as_bytes(),
            )),
            weights,
            weight_total: weights.iter().map(|&w| u64::from(w)).sum::<u64>().max(1),
            present,
            hit_fraction: spec.hit_fraction,
            batch_size: spec.batch_size,
            max_week,
        }
    }

    fn pick_addr(&mut self) -> (Ipv6Addr, bool) {
        let from_present = !self.present.is_empty() && self.rng.chance(self.hit_fraction);
        let addr = if from_present {
            Ipv6Addr::from(self.present[self.rng.below(self.present.len() as u64) as usize])
        } else {
            Ipv6Addr::from(random_probe(&mut self.rng))
        };
        (addr, from_present)
    }

    /// The next operation in the stream (never exhausts).
    pub fn next_request(&mut self) -> GenRequest {
        let mut pick = self.rng.below(self.weight_total);
        let mut kind = 0usize;
        for (i, &w) in self.weights.iter().enumerate() {
            if pick < u64::from(w) {
                kind = i;
                break;
            }
            pick -= u64::from(w);
        }
        match kind {
            0 => {
                let (addr, from_present) = self.pick_addr();
                GenRequest::Membership { addr, from_present }
            }
            1 => {
                let (addr, _) = self.pick_addr();
                GenRequest::MembershipUnaliased { addr }
            }
            2 => {
                let (addr, from_present) = self.pick_addr();
                GenRequest::Lookup { addr, from_present }
            }
            3 => {
                let (addr, from_present) = self.pick_addr();
                GenRequest::Density {
                    prefix: Prefix::of(addr, 48),
                    from_present,
                }
            }
            4 => GenRequest::NewSince {
                week: self.rng.below(self.max_week + 2),
            },
            _ => {
                let n = self.batch_size.max(1);
                let mut addrs = Vec::with_capacity(n);
                let mut expect_present = 0u64;
                for _ in 0..n {
                    let (addr, from_present) = self.pick_addr();
                    expect_present += u64::from(from_present);
                    addrs.push(addr);
                }
                GenRequest::Batch {
                    addrs,
                    expect_present,
                }
            }
        }
    }
}

impl Iterator for RequestStream<'_> {
    type Item = GenRequest;

    fn next(&mut self) -> Option<GenRequest> {
        Some(self.next_request())
    }
}

/// Samples up to `target` present addresses evenly across the snapshot
/// — the known-present pool a [`RequestStream`] draws hits from. Public
/// so other harnesses (`tests/wire_end_to_end.rs`) can build the same
/// pool a load run would.
pub fn sample_present(snap: &Snapshot, target: usize) -> Vec<u128> {
    let total = snap.len() as usize;
    if total == 0 {
        return Vec::new();
    }
    let stride = (total / target).max(1);
    let mut out = Vec::with_capacity(total.min(target) + 1);
    for shard in snap.shards() {
        out.extend(shard.iter_bits().step_by(stride));
    }
    out
}

/// A pseudorandom global-unicast address; with ~2^125 candidates it is
/// absent from any realistic snapshot with overwhelming probability.
fn random_probe(rng: &mut Rng) -> u128 {
    (0x2u128 << 124) | (rng.next_u128() >> 4)
}

fn run_worker(
    engine: &QueryEngine,
    spec: &LoadSpec,
    present: &[u128],
    thread_index: usize,
    quota: u64,
    first_epoch: u64,
) -> WorkerResult {
    let max_week = engine.store().snapshot().week();
    let mut stream = RequestStream::new(spec, present, max_week, thread_index);
    let mut hist = Histogram::new();
    let mut result = WorkerResult {
        hist: Histogram::new(),
        issued: 0,
        hits: 0,
        failures: 0,
        after_publish: 0,
        last_epoch: first_epoch,
    };

    while result.issued < quota {
        match stream.next_request() {
            GenRequest::Membership { addr, from_present } => {
                let t = Instant::now();
                let found = engine.contains(addr);
                hist.record(t.elapsed().as_nanos() as u64);
                result.issued += 1;
                result.hits += u64::from(found);
                if from_present && !found {
                    result.failures += 1;
                }
            }
            GenRequest::MembershipUnaliased { addr } => {
                let t = Instant::now();
                let _ = engine.contains_unaliased(addr);
                hist.record(t.elapsed().as_nanos() as u64);
                result.issued += 1;
            }
            GenRequest::Lookup { addr, from_present } => {
                let t = Instant::now();
                let ans = engine.lookup(addr);
                hist.record(t.elapsed().as_nanos() as u64);
                result.issued += 1;
                result.hits += u64::from(ans.present);
                if from_present && !ans.present {
                    result.failures += 1;
                }
                result.last_epoch = result.last_epoch.max(ans.epoch);
                result.after_publish += u64::from(ans.epoch > first_epoch);
            }
            GenRequest::Density {
                prefix,
                from_present,
            } => {
                let t = Instant::now();
                let n = engine.count_within(&prefix);
                hist.record(t.elapsed().as_nanos() as u64);
                result.issued += 1;
                if from_present && n == 0 {
                    result.failures += 1;
                }
            }
            GenRequest::NewSince { week } => {
                let t = Instant::now();
                let _ = engine.new_since(week);
                hist.record(t.elapsed().as_nanos() as u64);
                result.issued += 1;
            }
            GenRequest::Batch {
                addrs,
                expect_present,
            } => {
                let t = Instant::now();
                let ans = engine.batch_lookup(&addrs);
                hist.record(t.elapsed().as_nanos() as u64);
                result.issued += addrs.len() as u64;
                result.hits += ans.present;
                if ans.present < expect_present {
                    result.failures += 1;
                }
                result.last_epoch = result.last_epoch.max(ans.epoch);
                result.after_publish += u64::from(ans.epoch > first_epoch);
            }
        }
    }
    result.hist = hist;
    result
}

/// Runs the load against `engine` and reports throughput and latency.
pub fn run(engine: &QueryEngine, spec: &LoadSpec) -> LoadReport {
    assert!(spec.threads >= 1, "need at least one client thread");
    let snap0 = engine.store().snapshot();
    let first_epoch = snap0.epoch();
    let present = sample_present(&snap0, 65_536);

    let per_thread = spec.queries / spec.threads as u64;
    let remainder = spec.queries % spec.threads as u64;

    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|t| {
                let quota = per_thread + u64::from((t as u64) < remainder);
                let engine = &*engine;
                let present = &present[..];
                let spec = &*spec;
                scope.spawn(move || run_worker(engine, spec, present, t, quota, first_epoch))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    // The snapshot serving the final observations must still be intact.
    let final_snap = engine.store().snapshot();
    assert!(
        final_snap.verify_integrity(),
        "snapshot integrity violated during load"
    );

    let mut hist = Histogram::new();
    let mut queries = 0u64;
    let mut hits = 0u64;
    let mut failures = 0u64;
    let mut after_publish = 0u64;
    let mut last_epoch = first_epoch;
    for r in &results {
        hist.merge(&r.hist);
        queries += r.issued;
        hits += r.hits;
        failures += r.failures;
        after_publish += r.after_publish;
        last_epoch = last_epoch.max(r.last_epoch);
    }
    last_epoch = last_epoch.max(final_snap.epoch());
    let elapsed_secs = elapsed.as_secs_f64();
    LoadReport {
        queries,
        elapsed_secs,
        qps: queries as f64 / elapsed_secs.max(1e-9),
        p50_ns: hist.percentile(0.50),
        p90_ns: hist.percentile(0.90),
        p99_ns: hist.percentile(0.99),
        max_ns: hist.max_bucket(),
        present_hits: hits,
        verification_failures: failures,
        first_epoch,
        last_epoch,
        queries_after_publish: after_publish,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotBuilder;
    use crate::store::HitlistStore;
    use std::sync::Arc;

    fn engine_with(n: u32) -> QueryEngine {
        let store = HitlistStore::new("svc", 4);
        let mut b = SnapshotBuilder::new("svc", 4);
        for i in 0..n {
            b.add_bits(
                u128::from(u16::try_from(i % 97).unwrap()) << 80
                    | (0x2001_0db8u128 << 96)
                    | u128::from(i),
                i % 4,
            );
        }
        store.publish(b.build()).unwrap();
        QueryEngine::new(Arc::new(store))
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut h = Histogram::new();
        for ns in [10u64, 20, 40, 80, 5000, 100_000] {
            h.record(ns);
        }
        assert!(h.percentile(0.5) <= h.percentile(0.9));
        assert!(h.percentile(0.9) <= h.percentile(0.99));
        assert!(h.percentile(0.99) <= h.max_bucket());
    }

    #[test]
    fn deterministic_same_seed_same_failures_and_hits() {
        let engine = engine_with(5000);
        let spec = LoadSpec {
            queries: 20_000,
            threads: 2,
            ..Default::default()
        };
        let a = run(&engine, &spec);
        let b = run(&engine, &spec);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.present_hits, b.present_hits);
        assert_eq!(a.verification_failures, 0);
        assert_eq!(b.verification_failures, 0);
    }

    #[test]
    fn request_stream_is_seed_deterministic() {
        let engine = engine_with(500);
        let snap = engine.store().snapshot();
        let present = sample_present(&snap, 1024);
        let spec = LoadSpec::default();

        let a: Vec<GenRequest> = RequestStream::new(&spec, &present, snap.week(), 0)
            .take(2_000)
            .collect();
        let b: Vec<GenRequest> = RequestStream::new(&spec, &present, snap.week(), 0)
            .take(2_000)
            .collect();
        assert_eq!(a, b, "same (seed, thread) must replay identically");

        // Different thread index or seed: a different stream.
        let other_thread: Vec<GenRequest> = RequestStream::new(&spec, &present, snap.week(), 1)
            .take(2_000)
            .collect();
        assert_ne!(a, other_thread);
        let other_seed = LoadSpec {
            seed: spec.seed + 1,
            ..spec
        };
        let reseeded: Vec<GenRequest> = RequestStream::new(&other_seed, &present, snap.week(), 0)
            .take(2_000)
            .collect();
        assert_ne!(a, reseeded);
    }

    #[test]
    fn request_stream_costs_match_run_accounting() {
        let engine = engine_with(200);
        let snap = engine.store().snapshot();
        let present = sample_present(&snap, 256);
        let spec = LoadSpec::default();
        let mut stream = RequestStream::new(&spec, &present, snap.week(), 0);
        let mut issued = 0u64;
        let mut ops = 0u64;
        while issued < 5_000 {
            let req = stream.next_request();
            if let GenRequest::Batch {
                addrs,
                expect_present,
            } = &req
            {
                assert_eq!(addrs.len(), spec.batch_size);
                assert!(*expect_present <= addrs.len() as u64);
            }
            issued += req.cost();
            ops += 1;
        }
        assert!(ops < issued, "batches must compress ops below queries");
    }

    #[test]
    fn quota_split_covers_total() {
        let engine = engine_with(100);
        let spec = LoadSpec {
            queries: 10_001,
            threads: 3,
            ..Default::default()
        };
        let r = run(&engine, &spec);
        // Batched ops may overshoot the quota by at most one batch per
        // thread; never undershoot.
        assert!(r.queries >= 10_001);
        assert!(r.queries <= 10_001 + (spec.batch_size as u64) * 3);
    }
}
