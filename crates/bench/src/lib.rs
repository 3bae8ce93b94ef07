//! # v6bench — the reproduction harness and the micro-bench layer
//!
//! `--bin fig -- <name>` regenerates one table/figure of *IPv6 Hitlists
//! at Scale* (SIGCOMM 2023), printing the result next to the paper's
//! published numbers; `run_all` executes every experiment and rewrites
//! `EXPERIMENTS.md`. `benches/kernels.rs` records the per-kernel rows of
//! `BENCH_kernels.json`; end-to-end performance is measured by the
//! `benchmark/` package, not here.
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

/// One production kernel timed against its baseline at one input size,
/// as recorded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRecord {
    /// Kernel name: "par_map" (baseline: the same call at 1 thread) or
    /// "radix_sort" (baseline: `sort_unstable` on the same input).
    pub kernel: String,
    /// Input size (items for maps, elements for sorts).
    pub size: usize,
    /// Best-of-N wall milliseconds of the baseline.
    pub baseline_ms: f64,
    /// Best-of-N wall milliseconds of the kernel.
    pub kernel_ms: f64,
    /// `baseline_ms / kernel_ms`.
    pub speedup: f64,
}

/// One membership-lookup structure measured over a fixed probe mix, as
/// recorded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MembershipRecord {
    /// Structure probed: "sorted_vec" and "compressed_run" (half the
    /// probes present), or the key search of a cold-scan-shaped
    /// snapshot, each probe waiting on the previous one's rank,
    /// "scan_dependent", or all issued at once, "scan_independent" (one
    /// in ten present).
    pub structure: String,
    /// Addresses the structure holds.
    pub addresses: usize,
    /// Probes issued.
    pub probes: usize,
    /// Mean nanoseconds per probe (best of N rounds).
    pub ns_per_probe: f64,
    /// Heap bytes the structure occupies (a snapshot's `stored_bytes`).
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
    /// attributes already resolved ("entropy", "device"),
    /// `Analytics::apply` including the resolve ("analytics_apply"), the
    /// same churn as two sorted deltas through `Analytics::apply_delta`,
    /// resolving once per prefix span ("analytics_apply_delta"), or a
    /// bare `v6addr::iid_entropy` call ("iid_entropy").
    pub op: String,
    /// Events (or calls) per timed round.
    pub events: usize,
    /// Mean nanoseconds per event (best of N rounds).
    pub ns_per_event: f64,
    /// Heap allocations and reallocations per event over one round.
    pub allocs_per_event: f64,
}

/// One closed-loop request mix through the front door — `WireClient::send
/// → ServerConn::pump → WireClient::poll` over an in-memory pipe — as
/// recorded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRoundtripRecord {
    /// Request mix: "point" (membership, unaliased membership, lookup,
    /// /48 density and new-since, half of the addresses stored) or
    /// "batch16" (16-address batch lookups).
    pub mix: String,
    /// Addresses in the served snapshot.
    pub addresses: usize,
    /// Requests per timed round.
    pub requests: usize,
    /// Mean nanoseconds per request (best of N rounds).
    pub ns_per_request: f64,
    /// Heap allocations and reallocations per request, after warm-up.
    pub allocs_per_request: f64,
}

/// One checkpoint of a sorted state — encoded and framed as
/// `v6store::EpochLog` writes it, checksummed and decoded as recovery
/// reads it — at one clustering, as recorded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Entries in the state.
    pub entries: usize,
    /// Addresses per /64 key.
    pub per_64: usize,
    /// Header + encode + frame nanoseconds per entry (best of N rounds).
    pub encode_ns_per_entry: f64,
    /// Frame check + decode nanoseconds per entry (best of N rounds).
    pub decode_ns_per_entry: f64,
    /// Checkpoint file bytes per entry.
    pub bytes_per_entry: f64,
}

/// One diff a cluster leader derives — a partition's served snapshot
/// against its next content — at one delta shape, as recorded in
/// `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaderDiffRecord {
    /// Which diff: `v6serve::persist::delta_to_content` (snapshot
    /// against flat sorted content, the leader's) or
    /// `v6serve::persist::delta_between` (snapshot against snapshot).
    pub diff: String,
    /// Delta shape: "trickle" (256 entries changed) or "churn" (half of
    /// the entries replaced).
    pub shape: String,
    /// Entries in the partition before the delta.
    pub entries: usize,
    /// Entries the record removes plus entries it adds.
    pub changed: usize,
    /// Mean nanoseconds per partition entry (best of N rounds).
    pub ns_per_entry: f64,
}

/// One stage of passive NTP collection over the first 47 study days of
/// the default-scale world at seed 2022 (≈ 1 M events), as recorded in
/// `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NtpExchangeRecord {
    /// What was timed: the bare `v6netsim::NtpEventStream` ("stream"),
    /// `v6ntp::NtpPool::select` alone ("select"), select plus the wire
    /// round trip — client encode, server decode/validate/encode, client
    /// decode/validate — ("exchange"), `NtpCorpus::collect_with` at one
    /// thread, which runs the stream, the exchange and the log push
    /// ("collect"), or `NtpCorpus::dataset` over that corpus, per
    /// observation ("dataset").
    pub stage: String,
    /// Events (observations, for "dataset") per timed round.
    pub events: usize,
    /// Mean nanoseconds per event (best of N rounds).
    pub ns_per_event: f64,
    /// Heap allocations and reallocations per event over one round.
    pub allocs_per_event: f64,
}

/// One call of the simulated Internet's probe surface over the targets
/// of the CAIDA campaign on the default-scale world at seed 2022, as
/// recorded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldProbeRecord {
    /// What was timed, once per target from the campaign's vantage point
    /// at its start time: `World::route_hops` ("route_hops"),
    /// `World::probe_ttl` at TTL 1 ("probe_ttl_1") and 64
    /// ("probe_ttl_64"), `World::resolve` ("resolve"), or
    /// `World::contact_addr_at` over as many devices, one minute apart
    /// ("contact_addr_at").
    pub call: String,
    /// Calls per timed round.
    pub calls: usize,
    /// Mean nanoseconds per call (best of N rounds).
    pub ns_per_call: f64,
    /// Heap allocations and reallocations per call over one round.
    pub allocs_per_call: f64,
}

/// The machine-readable output of the `kernels` bench: the `v6par`
/// kernels production runs, each against its baseline at several input
/// sizes (so kernel-level regressions are visible separately from
/// pipeline-level ones), the membership-lookup comparison across the
/// address-store representations, longest-prefix match over the prefix
/// index, the per-event cost of the streaming operators, the cost of
/// a request through the front door, of a checkpoint, of the leader's
/// diff, of passive NTP collection, and of one probe of the simulated
/// Internet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelsBench {
    /// Worker count used for the `par_map` timings.
    pub threads: usize,
    /// Hardware threads available when the bench ran.
    pub cores: usize,
    /// Per-kernel, per-size comparisons.
    pub kernels: Vec<KernelRecord>,
    /// Membership-lookup comparison: sorted-vec vs compressed-run over
    /// the same clustered content.
    pub membership: Vec<MembershipRecord>,
    /// Longest-prefix match over `v6addr::PrefixMap`, flat and nested.
    pub lpm: Vec<LpmRecord>,
    /// `v6stream` operators on a half-replace delta of one 8 192-entry
    /// partition (a quarter EUI-64, 64 ASes).
    pub stream_ops: Vec<StreamOpRecord>,
    /// Time and heap allocations per request through the front door, on
    /// a 65 536-address snapshot.
    pub wire_roundtrip: Vec<WireRoundtripRecord>,
    /// A 32 768-entry checkpoint at 16 and at 1 address per /64.
    pub checkpoint: Vec<CheckpointRecord>,
    /// Both snapshot diffs of a 32 768-entry, 4-shard partition at 16
    /// addresses per /64, trickle- and churn-shaped.
    pub leader_diff: Vec<LeaderDiffRecord>,
    /// Passive NTP collection, stage by stage, per event.
    pub ntp_exchange: Vec<NtpExchangeRecord>,
    /// The probe surface of the default-scale world, per call.
    pub world_probe: Vec<WorldProbeRecord>,
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
