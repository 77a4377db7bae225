#!/usr/bin/env bash
# Pre-PR gate: run everything CI would. Fails fast on the first problem.
#
#   scripts/check.sh            # full gate
#   scripts/check.sh --bless    # same, but re-record the golden traces
#                               # (tests/golden/) before the trace-diff step
#
# 1. cargo fmt --check       — formatting
#    then scripts/pub_audit.sh — fails on a `pub fn` under crates/*/src
#                               that nothing but its own file's tests
#                               names, unless scripts/pub_audit.allow
#                               lists it with a reason (and on allowlist
#                               entries that no longer match one)
# 2. cargo clippy -D warnings — lints, workspace-wide incl. tests/benches
# 3. cargo doc -D warnings    — rustdoc builds clean (broken intra-doc
#                               links, private-item leaks, bad HTML)
# 4. tier-1: release build (all targets: lib, bins, tests, benches,
#    examples), then every example binary under examples/ must exit 0
#    (the examples are the only non-test callers of the chrome-trace
#    export, and `rag_pipeline` of `IvfIndex::train` outside the
#    benches), then the full test suite, then the tensor crate's tests
#    again in release mode:
#    its host kernels hold the workspace's SIMD intrinsics (`unsafe`), and
#    release codegen is what every benchmark and experiment runs. Then the
#    taskflow tests in release mode pinned to one core (`taskset -c 0`):
#    a cluster runs its workers on min(workers, cores) threads, so this is
#    the path where one thread serves every worker. Then the GCN tests on
#    one core: resident Algorithm 1 steps each device replica on its
#    worker's thread, and the training bit pins must hold when one thread
#    runs every worker's tasks. Then the RAG library
#    tests and the pinned fingerprint and property suites on one core:
#    shard builds train, route and encode in parallel (k-means rows fan
#    out across cores, PQ subspaces across block threads), and no
#    centroid, hit, clock or counter may depend on the core count
# 5. BENCH_A*.json: for every artifact row of `repro --list`, regenerate
#    it with `repro --exp <id>`, which exits nonzero on a failed write or a
#    violated bound, and require repro_output.txt to mention it (catches the
#    transcript drifting behind a newly shipped experiment). Then
#    crates/bench/tests/artifacts.rs re-checks the files as written.
# 6. trace-diff: record the gated fused-GCN (k = 4 on NVLink islands of 2,
#    and k = 8 on flat Ethernet, which exercises recursive halving-doubling),
#    RAG batch-scoring, sharded IVF-PQ search, and tiered-residency serving
#    workloads through the gpu_sim::trace interposer and diff sim-time
#    (±1%), submission count (exact), and exposed-comm fraction (+0.02)
#    against tests/golden/*.trace.json. `--bless` re-records the goldens.
# 7. sagebench (a package of its own, outside the workspace): its unit
#    tests, then a short untraced run of every workload, each of which must
#    end with `"correct": true` (served hits, training bits and replay all
#    check out), then short traced rag-cold and gcn-train runs. The
#    rag-cold layer pass calls the sharded and per-shard searches directly
#    and checks the sharded hits against a reference build; the gcn-train
#    layer pass replays the recorded trace and fails on any sim-time or
#    submission mismatch, which covers the one-time ÂX aggregation each
#    worker charges at scatter time.
# 8. clean tree: the working tree's diff (`git diff --binary`) and its list
#    of untracked files must be the same at the end as at the start, so a
#    BENCH artifact, golden trace or transcript that drifted during the
#    gate fails it. sagebench/Cargo.lock is left out (every sagebench build
#    rewrites it until a benchmark change commits the refreshed lock), and
#    the check is skipped under --bless, which rewrites goldens on purpose.
set -euo pipefail
cd "$(dirname "$0")/.."

BLESS=""
if [[ "${1:-}" == "--bless" ]]; then
  BLESS="--bless"
fi

tree_state() {
  {
    git diff --binary -- . ':(exclude)sagebench/Cargo.lock'
    git ls-files --others --exclude-standard
  } | sha256sum
}
tree_before=$(tree_state)

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> pub audit: no caller-less public functions outside the allowlist"
scripts/pub_audit.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release --all-targets && cargo test -q --workspace"
cargo build --release --all-targets
example_tmp=$(mktemp -d)  # profiling_lab writes its chrome trace to the temp dir
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "    example $name"
  TMPDIR="$example_tmp" "./target/release/examples/$name" > /dev/null
done
rm -rf "$example_tmp"
cargo test -q --workspace
cargo test --release -q -p sagegpu-tensor
taskset -c 0 cargo test --release -q -p taskflow
taskset -c 0 cargo test --release -q -p sagegpu-gcn
taskset -c 0 cargo test --release -q -p sagegpu-rag --lib --test pinned --test properties

echo "==> BENCH_A*.json: regenerate + check every artifact of \`repro --list\`"
rows=$(cargo run --release -q -p sagegpu-bench --bin repro -- --list)
while read -r id artifact _; do
  [[ "$artifact" == "-" ]] && continue
  echo "    $id -> BENCH_$artifact.json"
  cargo run --release -q -p sagegpu-bench --bin repro -- --exp "$id" > /dev/null
  if ! grep -q "BENCH_$artifact.json" repro_output.txt; then
    echo "repro_output.txt is stale: no mention of BENCH_$artifact.json (re-run \`repro > repro_output.txt\`)" >&2
    exit 1
  fi
done <<< "$rows"
cargo test --release -q -p sagegpu-bench --test artifacts

echo "==> trace-diff: golden trace regression gate${BLESS:+ (blessing)}"
if [[ -n "$BLESS" ]]; then
  cargo run --release -q -p sagegpu-bench --bin trace_gate -- --bless
fi
cargo run --release -q -p sagegpu-bench --bin trace_gate

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
for workload in rag-cold gcn-train; do
  result=$(cargo run --offline --release -q --manifest-path sagebench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 1 | tail -n 1)
  if [[ "$result" != *'"correct": true'* ]]; then
    echo "sagebench $workload (traced) is not correct: $result" >&2
    exit 1
  fi
done

if [[ -z "$BLESS" ]]; then
  echo "==> clean tree: the gate rewrote no tracked file and left no new file"
  if [[ "$(tree_state)" != "$tree_before" ]]; then
    echo "the gate changed the working tree (a BENCH artifact, golden or transcript drifted):" >&2
    git status --short >&2
    exit 1
  fi
fi

echo "OK: all checks passed"
