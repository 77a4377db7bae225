#!/usr/bin/env bash
# Alternating pairs of `sagebench` runs: a parent revision against the
# working tree.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <seed> <pairs> [seconds]
#
# Builds `sagebench` twice, offline, each in its own copy under a temporary
# directory: <parent-rev> unpacked with `git archive`, and the working tree
# (every tracked or untracked file git does not ignore, edits included).
# Then runs <pairs> pairs of `--workload <workload> --seed <seed> --seconds
# <seconds> --trace 0` (default 30 s), the parent first in even pairs and
# the change first in odd ones. For every end-to-end metric BENCHMARK.json
# lists it prints each pair's values, each side's median and quartiles
# (linear interpolation), the change in the medians, and how many pairs the
# change won by the metric's `better` direction. A run that reports
# `"correct": false` is named on stderr. Nothing in the repository is
# written; set BENCH_PAIRS_KEEP=1 to keep the copies and raw outputs.
set -euo pipefail
if [[ $# -lt 4 || $# -gt 5 ]]; then
  sed -n '5p' "$0" | sed 's/^# */usage: /' >&2
  exit 2
fi
parent=$1 workload=$2 seed=$3 pairs=$4 seconds=${5:-30}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
if [[ ${BENCH_PAIRS_KEEP:-0} == 1 ]]; then
  echo "copies and outputs kept in $tmp" >&2
else
  trap 'rm -rf "$tmp"' EXIT
fi
mkdir -p "$tmp/parent" "$tmp/change" "$tmp/out"

git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
(
  cd "$root"
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
    tar -c --null -T -
) | tar -x -C "$tmp/change"

for side in parent change; do
  echo "building $side" >&2
  cargo build --offline --release --quiet --manifest-path "$tmp/$side/sagebench/Cargo.toml"
done

run() {
  local side=$1 pair=$2 out="$tmp/out/$1.$2"
  (cd "$tmp/$side" && ./sagebench/target/release/sagebench --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0) > "$out"
  tail -n 1 "$out" | grep -q '"correct": true' || echo "pair $pair: $side run not correct" >&2
}
for ((i = 0; i < pairs; i++)); do
  echo "pair $((i + 1))/$pairs" >&2
  if ((i % 2 == 0)); then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
done

# "<name> <better>" for each end-to-end metric.
metrics=$(awk '
  /"end_to_end"/ { on = 1 }
  on && /"name"/ {
    match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
    match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH)
    gsub(/.*: *"|"$/, "", n); gsub(/.*: *"|"$/, "", b)
    print n, b
  }
  on && /\]/ { exit }' "$root/BENCHMARK.json")

echo "workload $workload, seed $seed, $pairs pairs of ${seconds} s: parent $parent vs working tree"
while read -r name better; do
  for ((i = 0; i < pairs; i++)); do
    p=$(awk -v m="$name" '$1 == "metric" && $2 == m { print $4 }' "$tmp/out/parent.$i")
    c=$(awk -v m="$name" '$1 == "metric" && $2 == m { print $4 }' "$tmp/out/change.$i")
    echo "${p:-nan} ${c:-nan}"
  done | awk -v name="$name" -v better="$better" '
    function sort(a, n,    i, j, t) {
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function q(a, n, f,    pos, lo) {
      pos = 1 + f * (n - 1); lo = int(pos)
      return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    {
      n++; p[n] = $1 + 0; c[n] = $2 + 0; pairs = pairs sprintf(" %s/%s", $1, $2)
      if ((better == "lower" && c[n] < p[n]) || (better == "higher" && c[n] > p[n])) wins++
    }
    END {
      sort(p, n); sort(c, n)
      pm = q(p, n, 0.5); cm = q(c, n, 0.5)
      printf "\n%s (%s is better)\n  parent/change per pair:%s\n", name, better, pairs
      printf "  parent median %.6g [q1 %.6g, q3 %.6g, IQR %.6g]\n", pm, q(p, n, 0.25), q(p, n, 0.75), q(p, n, 0.75) - q(p, n, 0.25)
      printf "  change median %.6g [q1 %.6g, q3 %.6g, IQR %.6g]\n", cm, q(c, n, 0.25), q(c, n, 0.75), q(c, n, 0.75) - q(c, n, 0.25)
      printf "  median change %+.2f%%, change better in %d/%d pairs\n", pm ? 100 * (cm - pm) / pm : 0, wins, n
    }'
done <<< "$metrics"
