#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== the frozen benchmark still builds against the crates' public items =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# A dependency-edge change in a crate it builds rewrites benchmark/Cargo.lock.
git diff --exit-code -- benchmark BENCHMARK.json
# Its own model checks (every replica's operators = Analytics::from_entries,
# recover = committed, query answers = oracle) gate a PR here, before the
# pipeline runs them. Writes only under target/ and benchmark/out/.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
  run --quick --seconds 1 --out target/ci-benchmark.json >/dev/null

echo "== cargo test -q --workspace (V6_THREADS=1) =="
V6_THREADS=1 cargo test -q --workspace

echo "== cargo test -q --workspace (V6_THREADS=4) =="
V6_THREADS=4 cargo test -q --workspace

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc --no-deps (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== chaos suite: transient fault plans reproduce the fault-free digest =="
for seed in 7 19 1041; do
  V6HL_SCALE=tiny V6_CHAOS_MODE=transient V6_CHAOS_SEED="$seed" V6_THREADS=4 \
    cargo run --release -q -p v6bench --bin chaos
done

echo "== chaos suite: permanent-fault loss report matches the golden file =="
V6HL_SCALE=tiny V6_CHAOS_MODE=permanent V6_CHAOS_SEED=11 V6_THREADS=4 \
  cargo run --release -q -p v6bench --bin chaos 2>/dev/null | grep '^LOST ' \
  | diff -u tests/golden/chaos_loss_seed11.txt -

echo "== crash-recovery matrix: kill-and-recover matches the golden reports =="
for seed in 5 23; do
  V6_CHAOS_MODE=recovery V6_CHAOS_SEED="$seed" \
    cargo run --release -q -p v6bench --bin chaos 2>/dev/null | grep '^RECOVER' \
    | diff -u "tests/golden/store_recovery_seed${seed}.txt" -
done

echo "== cluster chaos matrix: kill/partition runs match the golden fixtures =="
for seed in 41 97; do
  V6_CHAOS_MODE=cluster V6_CHAOS_SEED="$seed" \
    cargo run --release -q -p v6bench --bin chaos 2>/dev/null \
    | diff -u "tests/golden/cluster_seed${seed}.txt" -
done

echo "== stream chaos matrix: faulty-delivery operator runs match the golden fixtures =="
for seed in 13 27; do
  V6_CHAOS_MODE=stream V6_CHAOS_SEED="$seed" \
    cargo run --release -q -p v6bench --bin chaos 2>/dev/null \
    | diff -u "tests/golden/stream_seed${seed}.txt" -
done

echo "== wire chaos: faulty-transport reconnect/retry converges on exact answers =="
V6_CHAOS_MODE=wire V6_CHAOS_SEED=31 \
  cargo run --release -q -p v6bench --bin chaos 2>/dev/null | grep -q '^CHAOS_OK mode=wire'

echo "== wire format v1 is byte-pinned to the golden fixtures =="
cargo test -q -p v6wire --test golden_wire
cargo test -q -p v6wire --test fuzz_codec

echo "== digest equivalence at V6_THREADS={1,4} =="
for t in 1 4; do
  V6_THREADS="$t" cargo test -q -p v6hitlist --test parallel_equivalence
  V6_THREADS="$t" cargo test -q -p v6hitlist --test metrics_invariance
done

echo "== pipeline bench smoke (tiny, V6_THREADS=2) =="
rm -f BENCH_pipeline.json
V6HL_SCALE=tiny V6_THREADS=2 cargo run --release -q -p v6bench --bin pipeline
test -s BENCH_pipeline.json
grep -q '"digest"' BENCH_pipeline.json
grep -q '"total_threadsn_ms"' BENCH_pipeline.json
grep -q '"cutoffs"' BENCH_pipeline.json
grep -q '"metrics"' BENCH_pipeline.json

echo "== perf smoke: parallel run must not regress the pipeline =="
# The persistent pool's overhead budget: parallel wall time may be at
# most ~11% worse than sequential even on a single-core runner (where
# no speedup is possible). The threshold is deliberately generous to
# keep the gate deadline-proof against noisy CI boxes.
speedup=$(grep -o '"speedup": [0-9.]*' BENCH_pipeline.json | head -1 | tr -dc '0-9.')
cores=$(grep -o '"cores": [0-9]*' BENCH_pipeline.json | head -1 | tr -dc '0-9')
echo "pipeline speedup: ${speedup}x on ${cores} core(s)"
if [ "${cores}" = "1" ]; then
  echo "SKIP: single-core runner — parallel speedup is not measurable, gate waived"
else
  awk -v s="$speedup" 'BEGIN { exit !(s >= 0.9) }' \
    || { echo "FAIL: pipeline speedup ${speedup} < 0.9 (parallel overhead regression)"; exit 1; }
fi

echo "== serve bench smoke (load run + persistence on/off + cold recovery) =="
rm -f BENCH_serve.json
V6SERVE_QUERIES=200000 cargo run --release -q -p v6bench --bin serve >/dev/null
test -s BENCH_serve.json
grep -q '"cores"' BENCH_serve.json
grep -q '"durable_publish_ms"' BENCH_serve.json
grep -q '"cold_recovery_ms"' BENCH_serve.json
grep -q 'store.log.appends' BENCH_serve.json
grep -q 'store.recover.replayed' BENCH_serve.json
grep -q 'serve.store.bytes.raw' BENCH_serve.json
grep -q 'serve.store.bytes.compressed' BENCH_serve.json
# Front-door rows: the adversarial wire mix ran, the flooder was
# classified, and every refusal is accounted for in the wire metrics.
grep -q '"wire"' BENCH_serve.json
grep -q '"adversarial"' BENCH_serve.json
grep -q '"flood_classified_at_frame"' BENCH_serve.json
grep -q 'wire.admit.throttled' BENCH_serve.json
grep -q 'wire.shed.global_overload' BENCH_serve.json
# Cluster rows: the multi-node run replicated, killed/recovered a node,
# and converged to byte-identical replicas with an honest read audit.
grep -q '"cluster"' BENCH_serve.json
grep -q '"converged": true' BENCH_serve.json
grep -q '"unlabeled_stale_reads": 0' BENCH_serve.json
grep -q '"combined_checksum"' BENCH_serve.json
grep -q 'cluster.repl.deltas_applied' BENCH_serve.json
grep -q 'fabric.cluster.net.chunks' BENCH_serve.json
# Derived throughput rows ride the persistence and cluster blocks.
grep -q '"addrs_per_sec"' BENCH_serve.json
# Stream rows: incremental operators matched the batch rebuild at every
# scale, and the per-epoch cost stayed flat while batch grew.
grep -q '"stream"' BENCH_serve.json
grep -q '"incremental_ms"' BENCH_serve.json
grep -q '"batch_ms"' BENCH_serve.json
grep -q '"batch_growth"' BENCH_serve.json
grep -q '"checksums_equal": true' BENCH_serve.json
grep -q '"flat": true' BENCH_serve.json
grep -q 'stream.op.applied' BENCH_serve.json

echo "== kernels bench emits BENCH_kernels.json =="
rm -f BENCH_kernels.json
cargo bench -q -p v6bench --bench kernels >/dev/null
test -s BENCH_kernels.json
grep -q '"kway_merge"' BENCH_kernels.json
grep -q '"sort_comparison"' BENCH_kernels.json
grep -q '"sort_radix"' BENCH_kernels.json
grep -q '"sorted_vec"' BENCH_kernels.json
grep -q '"compressed_run"' BENCH_kernels.json
grep -q '"bloom_fronted"' BENCH_kernels.json
grep -q '"sorted_table"' BENCH_kernels.json
grep -q '"stream_ops"' BENCH_kernels.json

echo "== observability smoke (trace tree + metrics exposition) =="
V6HL_SCALE=tiny V6_THREADS=2 V6_TRACE=1 \
  cargo run --release -q -p v6bench --bin obs

echo "CI OK"
