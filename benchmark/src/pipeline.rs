//! The paper-reproduction path (netsim → NTP collection → scan
//! campaigns → analyses), which no serving workload touches:
//! `Experiment::run_with_threads` at the default scale.

use std::hint::black_box;
use std::time::Instant;

use v6bench::{config_for, Scale};
use v6hitlist::Experiment;
use v6serve::SnapshotBuilder;

use crate::util::{median, peak_rss_mb, threads, timed_setup, Outcome};

/// `artifact_digest` of the default scale at seed 2022, pinned by the
/// repo's own golden tests.
const DIGEST_2022: u64 = 0x0141_a91e_6b6a_41e9;

const STAGES: [&str; 8] = [
    "world",
    "corpus",
    "ntp",
    "hitlist",
    "caida",
    "backscan",
    "alias_findings",
    "tracking",
];

/// Bytes per address of the run's NTP hitlist once built into the
/// serving snapshot: the space cost of the paper's product on the
/// simulated Internet's own address distribution.
fn served_bytes_per_addr(e: &Experiment) -> f64 {
    let mut builder = SnapshotBuilder::new("ntp", 8);
    for r in e.ntp.records() {
        builder.add_address(r.addr, (r.first.as_secs() / (7 * 86_400)) as u32);
    }
    let snap = builder.build();
    snap.stored_bytes() as f64 / snap.len() as f64
}

pub fn run(seed: u64, seconds: f64, trace: bool, quick: bool) -> Outcome {
    let threads = threads();
    let scale = if quick { Scale::Tiny } else { Scale::Default };
    // Set-up is a tiny-scale run: it starts the worker pool and faults in
    // the code, which is what the timed runs would otherwise pay once.
    let ((), setup_s) = timed_setup(|| {
        black_box(Experiment::run_with_threads(
            config_for(Scale::Tiny, seed),
            threads,
        ));
    });
    let mut out = Outcome::default();
    out.note(format!(
        "pipeline-default: scale {}, {threads} threads of {} available",
        scale.name(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));

    let (mut run_s, mut digests) = (Vec::new(), Vec::new());
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let (mut observations, mut bytes_per_addr) = (0, 0.0);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || run_s.len() < 3 {
        let t = Instant::now();
        let e = Experiment::run_with_threads(config_for(scale, seed), threads);
        run_s.push(t.elapsed().as_secs_f64());
        digests.push(e.artifact_digest());
        for (ms, stage) in stage_ms.iter_mut().zip(STAGES) {
            let timing = e.timings.iter().find(|t| t.name == stage);
            ms.push(timing.map_or(0.0, |t| t.wall.as_secs_f64() * 1e3));
        }
        if run_s.len() == 1 {
            observations = e.corpus.len();
            bytes_per_addr = served_bytes_per_addr(&e);
        }
    }

    // Every run is the same study: equal digests, and the pinned one for
    // the seed the repo pins.
    for d in &digests {
        out.check(*d == digests[0]);
    }
    if seed == 2022 && !quick {
        out.check(digests[0] == DIGEST_2022);
    }
    out.note(format!(
        "{} runs of {observations} observations, digest {:016x}, seconds {run_s:.3?}",
        run_s.len(),
        digests[0]
    ));

    if trace {
        for (ms, stage) in stage_ms.iter_mut().zip(STAGES) {
            out.metric(&format!("hitlist.pipeline.{stage}_ms"), median(ms), "ms");
        }
        // `Experiment::timings` is always recorded; there is no tracing
        // to switch on, so it has no overhead to report.
        out.metric("trace.overhead_share", 0.0, "ratio");
        return out;
    }
    let slowest = run_s.iter().copied().fold(0.0, f64::max);
    let p50 = median(&mut run_s);
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", observations as f64 / p50, "1/s");
    out.metric("latency_p50_us", p50 * 1e6, "us");
    // A handful of runs supports no percentile above the median; the
    // slowest run is what is left of a tail.
    out.metric("latency_tail_us", slowest * 1e6, "us");
    out.metric("bytes_per_addr", bytes_per_addr, "B");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}
