#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"
# The gate writes under target/ and benchmark/out/ only; the last step
# holds it to that, dirty tree or not (status lines plus a checksum of
# the unstaged diff, so a rewrite of an already-modified file shows too).
tree_state() { git status --porcelain; git diff | cksum; }
tree_before=$(tree_state)

echo "== library code reads a fixed set of environment variables; every crate forbids unsafe; crates/*/src does not grow =="
# The tools crate (crates/bench) reads its own run knobs; nothing else
# may add one.
env_vars=$(grep -roE --include='*.rs' 'env::var(_os)?\("[A-Za-z0-9_]+"\)' crates/*/src \
  | grep -v '^crates/bench/src/' \
  | sed -E 's/.*\("([A-Za-z0-9_]+)"\)/\1/' | sort -u | tr '\n' ' ')
[ "$env_vars" = "V6_THREADS V6_TRACE " ] \
  || { echo "library env vars: $env_vars"; exit 1; }
for lib in crates/*/src/lib.rs; do
  grep -q '^#!\[forbid(unsafe_code)\]' "$lib" || { echo "$lib does not forbid unsafe code"; exit 1; }
done
# Size ratchet (ROADMAP item 10): a PR that shrinks crates/*/src lowers
# this ceiling to its own count; one that grows it raises the ceiling in
# its own diff and says why. 35 884 (+20 lines): `Dataset::from_observations`
# folds runs before its sort and merges the partials (+14, half of it the
# rustdoc and the reason the fold is not pre-sized), `tracking::analyze`
# takes the `ntp` dataset (+3), and docs (+3).
src_ceiling=35884
src_lines=$(find crates/*/src -name '*.rs' -print0 | xargs -0 cat | wc -l)
echo "crates/*/src: $src_lines lines (ceiling $src_ceiling)"
[ "$src_lines" -le "$src_ceiling" ] || { echo "crates/*/src grew past its ceiling"; exit 1; }

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

echo "== wire format v1 is byte-pinned to the golden fixtures =="
cargo test -q -p v6wire --test golden_wire
cargo test -q -p v6wire --test fuzz_codec

echo "== store format v2 is byte-pinned to its golden fixture; the v1 fixture still recovers =="
cargo test -q -p v6store --test golden_format

echo "== digest equivalence at V6_THREADS={1,4} =="
for t in 1 4; do
  V6_THREADS="$t" cargo test -q -p v6hitlist --test parallel_equivalence
  V6_THREADS="$t" cargo test -q -p v6hitlist --test metrics_invariance
done

echo "== kernels bench (writes target/BENCH_kernels.json, asserts its own round-trip) =="
# The two scan membership rows build a 4 194 304-address snapshot and
# probe it 10 M times: ≈ 6.5 s of the step. The `ntp_exchange` rows
# build the default-scale world and run ≈ 1 M NTP events through each
# collection stage; the `world_probe` rows reuse that world for 64 512
# calls of each probe-surface call. The step took 8.3–9.6 s without the
# `world_probe` rows and 8.4–8.5 s with them, on a 2-vCPU host.
cargo bench -q -p v6bench --bench kernels >/dev/null

echo "== observability smoke (trace tree + metrics exposition) =="
V6HL_SCALE=tiny V6_THREADS=2 V6_TRACE=1 \
  cargo run --release -q -p v6bench --bin obs

echo "== serving walkthrough example runs end to end =="
cargo run --release -q --example serve_hitlist >/dev/null

echo "== the gate left the working tree as it found it =="
[ "$tree_before" = "$(tree_state)" ] || { git status --porcelain; exit 1; }

echo "CI OK"
