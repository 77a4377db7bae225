#!/usr/bin/env bash
# Pre-PR gate: run everything CI would. Fails fast on the first problem.
#
#   scripts/check.sh            # full gate
#   scripts/check.sh --bless    # same, but re-record the golden traces
#                               # (tests/golden/) before the trace-diff step
#
# 1. cargo fmt --check       — formatting
# 2. cargo clippy -D warnings — lints, workspace-wide incl. tests/benches
# 3. cargo doc -D warnings    — rustdoc builds clean (broken intra-doc
#                               links, private-item leaks, bad HTML)
# 4. tier-1: release build (all targets: lib, bins, tests, benches) +
#    full test suite
# 5. BENCH_A07.json: regenerate via `repro --exp fusion`, then validate it
#    parses and reports strict fusion wins (crates/bench/tests/bench_a07.rs)
# 6. BENCH_A08.json: regenerate via `repro --exp scaling`, then validate the
#    comm schedules agree bit-for-bit and the bucketed overlap strictly
#    shrinks exposed communication (crates/bench/tests/bench_a08.rs)
# 7. BENCH_A09.json: regenerate via `repro --exp graph`, then validate graph
#    replay collapses submissions and amortizes launch overhead with
#    bit-identical outputs (crates/bench/tests/bench_a09.rs)
# 8. BENCH_A10.json: regenerate via `repro --exp topology`, then validate
#    the hierarchical two-tier schedule keeps the exposed comm fraction
#    under 0.25 at k=8, widens its lead over flat-monolithic through k=16,
#    stays bit-identical uncompressed, and halves the wire under fp16
#    (crates/bench/tests/bench_a10.rs). Steps 6-7 double as the A08/A09
#    non-regression gate: their artifact tests re-assert the headline wins.
# 9. BENCH_A11.json: regenerate via `repro --exp whatif`, then validate the
#    identity replay is exact and the NVLink-everywhere what-if predicts
#    the fresh ground-truth run within 5% (crates/bench/tests/bench_a11.rs)
# 10. BENCH_A12.json: regenerate via `repro --exp retrieval`, then validate
#    IVF-PQ shrinks device bytes >= 8x with recall@10 >= 0.9 at some swept
#    nprobe (exact refine after the merge), and 4-shard scatter-gather is
#    >= 2x faster than one shard with bit-identical hits
#    (crates/bench/tests/bench_a12.rs)
# 11. BENCH_A13.json: regenerate via `repro --exp residency_serving`, then
#    validate tiered-residency serving — hits bit-identical to the
#    fully-resident index at every budget, resident high-water <= budget,
#    and >= 0.5x the unbudgeted QPS at 25% budget under Zipfian skew
#    (crates/bench/tests/bench_a13.rs)
# 12. trace-diff: record the gated fused-GCN, RAG batch-scoring, sharded
#    IVF-PQ search, and tiered-residency serving workloads through the
#    gpu_sim::trace interposer and diff sim-time (±1%), submission count
#    (exact), and exposed-comm fraction (+0.02) against
#    tests/golden/*.trace.json. `--bless` re-records the goldens.
# 13. repro_output.txt mentions every committed BENCH_A*.json artifact —
#    catches the transcript drifting behind newly shipped experiments.
# 14. sagebench (a package of its own, outside the workspace): its unit
#    tests, then a short untraced run of every workload, each of which must
#    end with `"correct": true` (served hits, training bits and replay all
#    check out), then a short traced rag-cold run, whose layer pass calls
#    the sharded and per-shard searches directly and checks the sharded
#    hits against a reference build.
set -euo pipefail
cd "$(dirname "$0")/.."

BLESS=""
if [[ "${1:-}" == "--bless" ]]; then
  BLESS="--bless"
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release --all-targets && cargo test -q --workspace"
cargo build --release --all-targets
cargo test -q --workspace

echo "==> BENCH_A07.json: regenerate + validate"
cargo run --release -q -p sagegpu-bench --bin repro -- --exp fusion > /dev/null
cargo test -q -p sagegpu-bench --test bench_a07

echo "==> BENCH_A08.json: regenerate + validate"
cargo run --release -q -p sagegpu-bench --bin repro -- --exp scaling > /dev/null
cargo test -q -p sagegpu-bench --test bench_a08

echo "==> BENCH_A09.json: regenerate + validate"
cargo run --release -q -p sagegpu-bench --bin repro -- --exp graph > /dev/null
cargo test -q -p sagegpu-bench --test bench_a09

echo "==> BENCH_A10.json: regenerate + validate"
cargo run --release -q -p sagegpu-bench --bin repro -- --exp topology > /dev/null
cargo test -q -p sagegpu-bench --test bench_a10

echo "==> BENCH_A11.json: regenerate + validate"
cargo run --release -q -p sagegpu-bench --bin repro -- --exp whatif > /dev/null
cargo test -q -p sagegpu-bench --test bench_a11

echo "==> BENCH_A12.json: regenerate + validate"
cargo run --release -q -p sagegpu-bench --bin repro -- --exp retrieval > /dev/null
cargo test -q -p sagegpu-bench --test bench_a12

echo "==> BENCH_A13.json: regenerate + validate"
cargo run --release -q -p sagegpu-bench --bin repro -- --exp residency_serving > /dev/null
cargo test -q -p sagegpu-bench --test bench_a13

echo "==> trace-diff: golden trace regression gate${BLESS:+ (blessing)}"
if [[ -n "$BLESS" ]]; then
  cargo run --release -q -p sagegpu-bench --bin trace_gate -- --bless
fi
cargo run --release -q -p sagegpu-bench --bin trace_gate

echo "==> repro_output.txt mentions every shipped BENCH_A*.json"
for artifact in BENCH_A*.json; do
  if ! grep -q "$artifact" repro_output.txt; then
    echo "repro_output.txt is stale: no mention of $artifact (re-run \`repro > repro_output.txt\`)" >&2
    exit 1
  fi
done

echo "==> sagebench: unit tests + short run of every workload"
cargo test --offline --release -q --manifest-path sagebench/Cargo.toml
for workload in rag-hot rag-cold gcn-train; do
  result=$(cargo run --offline --release -q --manifest-path sagebench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)
  if [[ "$result" != *'"correct": true'* ]]; then
    echo "sagebench $workload is not correct: $result" >&2
    exit 1
  fi
done
result=$(cargo run --offline --release -q --manifest-path sagebench/Cargo.toml -- \
  --workload rag-cold --seed 1 --seconds 3 --trace 1 | tail -n 1)
if [[ "$result" != *'"correct": true'* ]]; then
  echo "sagebench rag-cold (traced) is not correct: $result" >&2
  exit 1
fi

echo "OK: all checks passed"
