//! The repo benchmark. See README.md for what it measures and why, and
//! ../BENCHMARK.json for the contract it is run under.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! benchmark run [--seed <n>] [--seconds <s>] [--repeat <n>] [--quick] --out <file>
//! benchmark compare <a.json> <b.json>
//! ```

mod epoch;
mod gen;
mod pipeline;
mod query;
mod report;
mod util;

use std::process::ExitCode;

use util::Outcome;

pub const WORKLOADS: [&str; 5] = [
    "query-hot",
    "query-cold-scan",
    "epoch-trickle",
    "epoch-churn",
    "pipeline-default",
];

/// Every per-layer metric and its unit. A traced run prints them all:
/// zero for the layers its workload does not run.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("wire.codec.req_encode_ns", "ns"),
    ("wire.codec.req_decode_ns", "ns"),
    ("wire.codec.resp_encode_ns", "ns"),
    ("wire.codec.resp_decode_ns", "ns"),
    ("wire.codec.bytes_per_req", "B"),
    ("wire.codec.bytes_per_resp", "B"),
    ("wire.admit.ns", "ns"),
    ("wire.admit.refused", "count"),
    ("wire.conn.on_bytes_ns", "ns"),
    ("wire.conn.self_ns", "ns"),
    ("wire.transport.self_ns", "ns"),
    ("serve.engine.ns", "ns"),
    ("serve.snapshot.member_ns", "ns"),
    ("serve.snapshot.alias_ns", "ns"),
    ("serve.snapshot.density_ns", "ns"),
    ("serve.build.ms", "ms"),
    ("query.loop.clock_ns", "ns"),
    ("query.request_ns", "ns"),
    ("query.unattributed_share", "ratio"),
    ("serve.persist.rebuild_ms", "ms"),
    ("serve.persist.flatten_ms", "ms"),
    ("store.replica.clone_apply_ms", "ms"),
    ("store.replica.diff_ms", "ms"),
    ("serve.store.publish_ms", "ms"),
    ("store.log.append_ms", "ms"),
    ("store.log.bytes", "B"),
    ("store.log.appends", "count"),
    ("store.replica.encode_ms", "ms"),
    ("store.replica.decode_ms", "ms"),
    ("cluster.proto.frame_ms", "ms"),
    ("cluster.net.bytes", "B"),
    ("cluster.net.chunks", "count"),
    ("cluster.pump.rounds_per_wave", "count"),
    ("cluster.repl.useful_ratio", "ratio"),
    ("cluster.repl.catchups", "count"),
    ("stream.driver.feed_ms", "ms"),
    ("stream.ops.events", "count"),
    ("store.recover.ms", "ms"),
    ("store.recover.replayed", "count"),
    ("epoch.wave_ms", "ms"),
    ("epoch.unattributed_share", "ratio"),
    ("hitlist.pipeline.world_ms", "ms"),
    ("hitlist.pipeline.corpus_ms", "ms"),
    ("hitlist.pipeline.ntp_ms", "ms"),
    ("hitlist.pipeline.hitlist_ms", "ms"),
    ("hitlist.pipeline.caida_ms", "ms"),
    ("hitlist.pipeline.backscan_ms", "ms"),
    ("hitlist.pipeline.alias_findings_ms", "ms"),
    ("hitlist.pipeline.tracking_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad value for {name}: {v}"))),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

pub fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       \
         benchmark run [--seed <n>] [--seconds <s>] [--repeat <n>] [--quick] --out <file>\n       \
         benchmark compare <a.json> <b.json>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Outcome {
    match workload {
        "query-hot" | "query-cold-scan" => query::run(workload, seed, seconds, trace, quick),
        "epoch-trickle" | "epoch-churn" => epoch::run(workload, seed, seconds, trace),
        "pipeline-default" => pipeline::run(seed, seconds, trace, quick),
        other => usage(&format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match args.0.first().map(String::as_str) {
        Some("run") => report::run_all(&args),
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => report::compare(a, b),
            _ => usage("compare needs two files"),
        },
        _ => {
            let Some(workload) = args.value("--workload") else {
                usage("no --workload")
            };
            let trace = args.parsed("--trace", 0u8) != 0;
            let mut outcome = run_workload(
                workload,
                args.parsed("--seed", 2022),
                args.parsed("--seconds", 10.0),
                trace,
                args.flag("--quick"),
            );
            if trace {
                for (name, _, _) in &outcome.metrics {
                    assert!(
                        PER_LAYER.iter().any(|(n, _)| n == name),
                        "{name} is missing from PER_LAYER"
                    );
                }
                let measured = std::mem::take(&mut outcome.metrics);
                for (name, unit) in PER_LAYER {
                    let value = measured.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                    outcome.metric(name, value, unit);
                }
            }
            report::print_outcome(workload, &outcome)
        }
    }
}
