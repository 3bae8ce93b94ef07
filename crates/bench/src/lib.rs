//! # v6bench — the benchmark and reproduction harness
//!
//! `--bin fig -- <name>` regenerates one table/figure of *IPv6 Hitlists
//! at Scale* (SIGCOMM 2023), printing the result next to the paper's
//! published numbers; `run_all` executes every experiment and rewrites
//! `EXPERIMENTS.md`.
//!
//! Scale and seed come from the environment:
//!
//! * `V6HL_SCALE` — `tiny` | `default` (default) | `paper`
//! * `V6HL_SEED` — u64 master seed (default 2022)
//!
//! Run with `--release`; the default scale completes in seconds, `paper`
//! in minutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use serde::{Deserialize, Serialize};
use v6hitlist::{Experiment, ExperimentConfig};
use v6netsim::WorldConfig;
use v6scan::{CaidaCampaignConfig, HitlistCampaignConfig};

/// One counter from a metrics dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name (e.g. `collect.observations`).
    pub name: String,
    /// Final counter value.
    pub value: u64,
}

/// One gauge from a metrics dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Metric name (e.g. `par.dag.ready_peak`).
    pub name: String,
    /// Final gauge value.
    pub value: i64,
}

/// One latency histogram's summary from a metrics dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Metric name (e.g. `par.dag.stage_latency`).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
    /// Median (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile (bucket upper bound), nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
}

/// A serializable [`v6obs::MetricsSnapshot`], embedded in the
/// `BENCH_*.json` artifacts.
///
/// The vendored `serde_json` has no dynamic `Value` type, so the
/// snapshot is mirrored into these typed entries instead. Counter values
/// are data-derived and reproducible; histogram fields are timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricsDump {
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// All histogram summaries, sorted by name.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsDump {
    /// Mirrors a registry snapshot into the serializable form.
    pub fn from_snapshot(snap: &v6obs::MetricsSnapshot) -> MetricsDump {
        MetricsDump {
            counters: snap
                .counters
                .iter()
                .map(|(name, value)| CounterEntry {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|(name, value)| GaugeEntry {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|(name, h)| HistogramEntry {
                    name: name.clone(),
                    count: h.count,
                    sum_ns: h.sum_ns,
                    max_ns: h.max_ns,
                    p50_ns: h.p50_ns,
                    p90_ns: h.p90_ns,
                    p99_ns: h.p99_ns,
                })
                .collect(),
        }
    }

    /// The process-global registry's current state.
    pub fn from_global() -> MetricsDump {
        MetricsDump::from_snapshot(&v6obs::global().snapshot())
    }

    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

/// One pipeline stage's wall time at both thread counts, as recorded in
/// `BENCH_pipeline.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Stage name ("world", "corpus", "hitlist", …).
    pub name: String,
    /// Wall milliseconds with 1 thread.
    pub threads1_ms: f64,
    /// Wall milliseconds with N threads.
    pub threadsn_ms: f64,
}

/// One labeled call site's adaptive-cutoff decisions, mirrored from the
/// `par.cutoff.<site>.{inline,parallel}` counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutoffRecord {
    /// The `Cost::labeled` site ("collect.shard", "scan.zmap6", "sort", …).
    pub site: String,
    /// Calls that stayed sequential-inline (work below the cutoff).
    pub inline: u64,
    /// Calls that committed to the parallel path.
    pub parallel: u64,
}

impl CutoffRecord {
    /// Extracts every cutoff site from a metrics dump, sorted by site.
    pub fn from_dump(dump: &MetricsDump) -> Vec<CutoffRecord> {
        let mut by_site: Vec<CutoffRecord> = Vec::new();
        for entry in &dump.counters {
            let Some(rest) = entry.name.strip_prefix("par.cutoff.") else {
                continue;
            };
            let Some((site, decision)) = rest.rsplit_once('.') else {
                continue;
            };
            let record = match by_site.iter_mut().find(|r| r.site == site) {
                Some(r) => r,
                None => {
                    by_site.push(CutoffRecord {
                        site: site.to_string(),
                        inline: 0,
                        parallel: 0,
                    });
                    by_site.last_mut().expect("just pushed")
                }
            };
            match decision {
                "inline" => record.inline = entry.value,
                "parallel" => record.parallel = entry.value,
                _ => {}
            }
        }
        by_site.sort_by(|a, b| a.site.cmp(&b.site));
        by_site
    }
}

/// The machine-readable output of the `pipeline` bench binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineBench {
    /// Scale the bench ran at.
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// The parallel run's thread count (defaults to every available
    /// core; `V6_THREADS` overrides).
    pub threads: usize,
    /// Hardware threads available to the process when the bench ran —
    /// the context for reading `speedup` (a 1-core box can't exceed ~1).
    pub cores: usize,
    /// `Experiment::artifact_digest` as hex — identical for both runs by
    /// construction (the bench asserts it before writing this file).
    pub digest: String,
    /// End-to-end wall milliseconds with 1 thread.
    pub total_threads1_ms: f64,
    /// End-to-end wall milliseconds with N threads.
    pub total_threadsn_ms: f64,
    /// `total_threads1_ms / total_threadsn_ms`.
    pub speedup: f64,
    /// Per-stage breakdown.
    pub stages: Vec<StageRecord>,
    /// Adaptive-cutoff decisions per labeled call site, over both runs
    /// (the sequential run records none — it never consults the cutoff).
    pub cutoffs: Vec<CutoffRecord>,
    /// Raw NTP observations collected.
    pub corpus_observations: u64,
    /// True iff the pre-sized corpus buffer never reallocated.
    pub corpus_preallocated: bool,
    /// Process-global registry state after both runs (counters cover the
    /// sequential *and* parallel run combined).
    pub metrics: MetricsDump,
}

/// Durability timings from the `serve` bench: the same publication
/// sequence driven against an in-memory store and a write-ahead-logged
/// one, followed by a timed cold recovery of the durable store after a
/// simulated crash (the writer is dropped with no shutdown step).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistenceBench {
    /// Epochs published in each timed sequence.
    pub epochs: u64,
    /// Wall milliseconds publishing the sequence in-memory only.
    pub memory_publish_ms: f64,
    /// Wall milliseconds publishing the same sequence with the epoch
    /// log enabled (frame append + fsync ahead of every swap).
    pub durable_publish_ms: f64,
    /// Bytes the epoch log held when the writer "crashed".
    pub log_bytes: u64,
    /// Wall milliseconds for the cold `HitlistStore::recover`.
    pub cold_recovery_ms: f64,
    /// Epoch the recovery landed on (the bench asserts it matches the
    /// last published epoch and checksum).
    pub recovered_epoch: u64,
    /// Delta frames replayed from the log during recovery.
    pub replayed: u64,
    /// Derived throughput: addresses carried across the durable publish
    /// sequence per wall second (`Σ snapshot sizes / durable seconds`).
    pub addrs_per_sec: f64,
    /// The writer store's registry after the durable sequence
    /// (`store.log.*` counters plus the append-latency histogram).
    pub writer_metrics: MetricsDump,
    /// The recovered store's registry (`store.recover.*` counters plus
    /// the recovery-latency histogram).
    pub recovery_metrics: MetricsDump,
}

/// One client population's wire-level outcome under the adversarial
/// front-door mix, as recorded in `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireMixRecord {
    /// Population label ("steady", "burst", "flood").
    pub label: String,
    /// Concurrent clients in this population.
    pub clients: usize,
    /// Requests sent across the population.
    pub sent: u64,
    /// Requests answered with real responses.
    pub answered: u64,
    /// Requests answered with explicit `Throttled` frames.
    pub throttled: u64,
    /// Requests answered with explicit `Shed` frames.
    pub shed: u64,
    /// Server-side p99 service latency for this behavioral class,
    /// nanoseconds (log2-bucket upper bound; admitted requests only).
    pub p99_ns: u64,
}

/// The adversarial front-door run from the `serve` bench: steady
/// pollers, a burst scraper, and a query-flooder sharing one
/// [`v6wire::WireServer`] on simulated time, against a no-flood
/// baseline of the same pollers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireBench {
    /// Steady-poller p99 service latency with no abusive traffic,
    /// nanoseconds.
    pub baseline_steady_p99_ns: u64,
    /// Steady-poller p99 service latency under the adversarial mix,
    /// nanoseconds (the bench asserts it stays within the degradation
    /// budget of the baseline).
    pub adversarial_steady_p99_ns: u64,
    /// Requests admitted during the adversarial run.
    pub admitted: u64,
    /// Requests throttled during the adversarial run (all explicit
    /// `Throttled` frames, never silent drops).
    pub throttled: u64,
    /// Requests shed during the adversarial run (explicit `Shed`
    /// frames).
    pub shed: u64,
    /// Frame index at which the flooder was classified.
    pub flood_classified_at_frame: u64,
    /// Per-population outcomes under the adversarial mix.
    pub adversarial: Vec<WireMixRecord>,
    /// The wire server's registry after the adversarial run
    /// (`wire.conn.*` / `wire.admit.*` / `wire.shed.*` counters plus
    /// per-class latency histograms).
    pub metrics: MetricsDump,
}

/// The multi-node cluster run from the `serve` bench: a small
/// [`v6cluster::Cluster`] driven through publishes, a node kill, a
/// network partition, hedged reads under both, and a final
/// convergence pass.
///
/// [`v6cluster::Cluster`]: ../v6cluster/struct.Cluster.html
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterBench {
    /// Simulated nodes.
    pub nodes: usize,
    /// Replication factor R.
    pub replication: usize,
    /// Partitions the /48 space folds into.
    pub partitions: u32,
    /// Epochs committed across all partitions.
    pub epochs_published: u64,
    /// Hedged reads issued.
    pub reads: u64,
    /// Reads answered fresh (committed epoch, quorum reachable).
    pub reads_fresh: u64,
    /// Reads answered but labeled degraded (stale or under-quorum).
    pub reads_degraded: u64,
    /// Reads nothing answered before the deadline.
    pub reads_unavailable: u64,
    /// The audited invariant: stale answers labeled fresh. Must be 0.
    pub unlabeled_stale_reads: u64,
    /// Node kills during the run (driver- or chaos-initiated).
    pub kills: u64,
    /// Node restarts through crash recovery.
    pub restarts: u64,
    /// True when the final convergence pass reached byte-identical
    /// replicas everywhere.
    pub converged: bool,
    /// Rounds the convergence pass ran.
    pub converge_rounds: u64,
    /// Derived throughput: address entries committed through the
    /// publish/replicate waves per wall second.
    pub addrs_per_sec: f64,
    /// The convergence report's combined checksum (hex).
    pub combined_checksum: String,
    /// Merged per-node + fabric registries (`<node>.cluster.*`,
    /// `fabric.cluster.net.*`).
    pub metrics: MetricsDump,
}

/// One corpus scale of the streaming-analytics comparison: the cost of
/// folding one fixed-size delta into live [`v6stream`] operators vs.
/// rebuilding the same operators from the materialized corpus.
///
/// [`v6stream`]: ../v6stream/index.html
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamScaleRecord {
    /// Addresses in the materialized corpus at the measured epoch.
    pub corpus: usize,
    /// Entries (adds + removes + week changes) in the measured delta —
    /// held constant across scales so incremental cost isolates corpus
    /// size.
    pub delta: usize,
    /// Best-of-N wall milliseconds feeding the delta through a live
    /// [`v6stream::StreamDriver`].
    ///
    /// [`v6stream::StreamDriver`]: ../v6stream/struct.StreamDriver.html
    pub incremental_ms: f64,
    /// Best-of-N wall milliseconds for the batch rebuild
    /// (`Analytics::from_entries` over the full corpus).
    pub batch_ms: f64,
    /// `batch_ms / incremental_ms`.
    pub speedup: f64,
    /// True when the incremental operators' checksums equaled the
    /// batch rebuild's after the delta — the equivalence invariant,
    /// re-asserted inside the bench.
    pub checksums_equal: bool,
}

/// The streaming-analytics run from the `serve` bench: the same
/// fixed-size delta folded into operators over corpora of growing
/// size, pinning the perf claim that per-epoch incremental update
/// stays ~flat while batch re-analysis grows linearly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamBench {
    /// Per-scale comparisons, smallest corpus first.
    pub scales: Vec<StreamScaleRecord>,
    /// True when incremental cost at the largest corpus stayed within
    /// the flatness budget of the smallest (while the corpus itself
    /// grew by the full scale ratio).
    pub flat: bool,
    /// `batch_ms(largest) / batch_ms(smallest)` — the linear-growth
    /// contrast to `flat`.
    pub batch_growth: f64,
    /// The process-global `stream.op.*` counters after the run.
    pub metrics: MetricsDump,
}

/// The machine-readable output of the `serve` bench binary: run
/// parameters plus the store's registry state (counters and latency
/// histograms) after the load run, and the durability timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBench {
    /// Master seed.
    pub seed: u64,
    /// Queries replayed.
    pub queries: u64,
    /// Client threads.
    pub threads: usize,
    /// Store shard count.
    pub shards: usize,
    /// Hardware threads available to the process when the bench ran —
    /// the context for reading the throughput numbers, mirroring
    /// `BENCH_pipeline.json`.
    pub cores: usize,
    /// The store's private registry after the run.
    pub metrics: MetricsDump,
    /// Persistence-on vs. -off publish cost and cold-recovery timing.
    pub persistence: PersistenceBench,
    /// The adversarial front-door run over the same store.
    pub wire: WireBench,
    /// The multi-node cluster run: replication, faults, hedged reads,
    /// convergence.
    pub cluster: ClusterBench,
    /// Incremental vs. batch analytics over growing corpora.
    pub stream: StreamBench,
}

/// One kernel measured sequentially and in parallel at one input size,
/// as recorded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRecord {
    /// Kernel name ("par_map", "par_sort", "kway_merge").
    pub kernel: String,
    /// Input size (items for maps, elements for sorts/merges).
    pub size: usize,
    /// Best-of-N wall milliseconds with 1 thread.
    pub seq_ms: f64,
    /// Best-of-N wall milliseconds with `threads` workers.
    pub par_ms: f64,
    /// `seq_ms / par_ms`.
    pub speedup: f64,
}

/// One membership-lookup structure measured over a fixed probe mix, as
/// recorded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MembershipRecord {
    /// Structure probed ("sorted_vec", "compressed_run", "bloom_compressed").
    pub structure: String,
    /// Addresses the structure holds.
    pub addresses: usize,
    /// Probes issued (half present, half absent).
    pub probes: usize,
    /// Mean nanoseconds per probe (best of N rounds).
    pub ns_per_probe: f64,
    /// Heap bytes the structure occupies.
    pub bytes: usize,
}

/// One prefix → value layout measured on longest-prefix match over one
/// table shape, as recorded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpmRecord {
    /// Layout probed ("sorted_table").
    pub structure: String,
    /// Table shape: "flat" (disjoint /48s) or "nested" (per AS a /33 and
    /// a /34 pool with /48s inside them, the `World` route-table shape).
    pub shape: String,
    /// Prefixes the table holds.
    pub prefixes: usize,
    /// Probes issued (half inside a stored prefix, half uniform misses).
    pub probes: usize,
    /// Mean nanoseconds per probe (best of N rounds).
    pub ns_per_probe: f64,
    /// Heap bytes live after the build, counted by the bench's allocator.
    pub bytes: usize,
}

/// One per-event cost of the streaming analytics, as recorded in
/// `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamOpRecord {
    /// What was timed: one `v6stream` operator's `apply` with the
    /// attributes already resolved ("density", "entropy", "device"),
    /// `Analytics::apply` including the resolve ("analytics_apply"), or
    /// a bare `v6addr::iid_entropy` call ("iid_entropy").
    pub op: String,
    /// Events (or calls) per timed round.
    pub events: usize,
    /// Mean nanoseconds per event (best of N rounds).
    pub ns_per_event: f64,
}

/// The machine-readable output of the `kernels` bench: sequential vs.
/// parallel timings for the `v6par` kernels at several input sizes (so
/// kernel-level regressions are visible separately from pipeline-level
/// ones), the membership-lookup comparison across the address-store
/// representations, longest-prefix match over the prefix index, and the
/// per-event cost of the streaming operators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelsBench {
    /// Worker count used for the parallel timings.
    pub threads: usize,
    /// Hardware threads available when the bench ran.
    pub cores: usize,
    /// Per-kernel, per-size comparisons.
    pub kernels: Vec<KernelRecord>,
    /// Membership-lookup comparison: sorted-vec vs compressed-run vs
    /// bloom-fronted compressed-run over the same clustered content.
    pub membership: Vec<MembershipRecord>,
    /// Longest-prefix match over `v6addr::PrefixMap`, flat and nested.
    pub lpm: Vec<LpmRecord>,
    /// `v6stream` operators on a half-replace delta of one 8 192-entry
    /// partition (a quarter EUI-64, 64 ASes).
    pub stream_ops: Vec<StreamOpRecord>,
}

/// The scale selected through `V6HL_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale (seconds even in debug builds).
    Tiny,
    /// The default experiment scale.
    Default,
    /// The scale used for the recorded EXPERIMENTS.md numbers.
    Paper,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("V6HL_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("paper") => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }
}

/// Reads the master seed from the environment (default 2022).
pub fn seed_from_env() -> u64 {
    std::env::var("V6HL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2022)
}

/// Builds the experiment configuration for a scale.
pub fn config_for(scale: Scale, seed: u64) -> ExperimentConfig {
    match scale {
        Scale::Tiny => ExperimentConfig::tiny(seed),
        Scale::Paper => ExperimentConfig::paper(seed),
        Scale::Default => {
            let mut cfg = ExperimentConfig::paper(seed);
            let outages = cfg.world.outages.clone();
            cfg.world = WorldConfig::default_scale();
            cfg.world.outages = outages;
            cfg.hitlist = HitlistCampaignConfig {
                weeks: 8,
                ..Default::default()
            };
            cfg.caida = CaidaCampaignConfig {
                stride: 128,
                ..Default::default()
            };
            cfg
        }
    }
}

/// Runs the full experiment at the environment-selected scale, printing
/// a progress banner.
pub fn run_experiment() -> Experiment {
    let scale = Scale::from_env();
    let seed = seed_from_env();
    eprintln!(
        "[v6bench] building world + running study (scale={}, seed={seed}) …",
        scale.name()
    );
    let t0 = std::time::Instant::now();
    let e = Experiment::run(config_for(scale, seed));
    eprintln!(
        "[v6bench] study complete in {:.1}s: {} NTP observations, {} unique addresses",
        t0.elapsed().as_secs_f64(),
        e.corpus.len(),
        e.ntp.len()
    );
    e
}

/// Prints one experiment's human-readable output and its paper-vs-
/// measured records as Markdown.
pub fn print_experiment((text, records): (String, Vec<v6hitlist::ExperimentRecord>)) {
    println!("{text}");
    println!("{}", v6hitlist::report::render_markdown(&records));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults() {
        // No env manipulation (tests run in parallel); just check names.
        assert_eq!(Scale::Tiny.name(), "tiny");
        assert_eq!(Scale::Default.name(), "default");
        assert_eq!(Scale::Paper.name(), "paper");
    }

    #[test]
    fn configs_scale_up() {
        let t = config_for(Scale::Tiny, 1);
        let d = config_for(Scale::Default, 1);
        let p = config_for(Scale::Paper, 1);
        assert!(t.world.home_networks < d.world.home_networks);
        assert!(d.world.home_networks < p.world.home_networks);
        assert!(d.hitlist.weeks <= p.hitlist.weeks);
    }
}
