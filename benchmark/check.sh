#!/usr/bin/env bash
# Lints the benchmark package, then runs every workload once at --quick
# size (1 s each; query-cold-scan at 1 M addresses, 65 536 pre-generated
# requests, pipeline at tiny scale) untraced and traced. `run` checks each
# result against ../BENCHMARK.json: every named metric printed once with
# its unit, legal names, finite values, at most 8 workloads, 16
# end-to-end and 128 per-layer names, every answer equal to the model's.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo run --offline --release --quiet -- run --quick --seconds 1 --out out/check.json >out/check.log
echo "benchmark check passed ($(grep -c '"workload"' out/check.json) runs, see out/check.log)"
