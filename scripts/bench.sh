#!/usr/bin/env bash
# scripts/bench.sh — run the root benchmark suite (one Benchmark per paper
# table/figure, plus the scaling tiers: SolveN's solve sweep over the unit
# count, Sim10kPU's generated 10,000-PU cluster, and WarmRebalance's
# re-solves under a mid-run slowdown) with -benchmem and write
# BENCH_<pr>.json: one machine-readable point of the repo's performance
# trajectory, carrying ns/op, B/op, allocs/op, and the custom metrics
# (sim-s, speedup-x, tau-steps/solve, ...) each benchmark reports.
#
# Usage: scripts/bench.sh [pr-number]
#   pr-number  trajectory point to write (default: next after the highest
#              existing BENCH_*.json)
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 1s)
#   BENCH      benchmark regex (default '.', the whole suite)
#
# See docs/PERFORMANCE.md for how to read and compare trajectory points.
set -euo pipefail
cd "$(dirname "$0")/.."

pr="${1:-}"
if [ -z "$pr" ]; then
  pr=1
  for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n="${f#BENCH_}"
    n="${n%.json}"
    case "$n" in *[!0-9]*) continue ;; esac
    [ "$n" -ge "$pr" ] && pr=$((n + 1))
  done
fi

benchtime="${BENCHTIME:-1s}"
pattern="${BENCH:-.}"
out="BENCH_${pr}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running root benchmarks (-bench='$pattern' -benchtime=$benchtime)..." >&2
go test -run xxx -bench "$pattern" -benchmem -benchtime "$benchtime" . | tee "$raw" >&2

awk -v pr="$pr" -v benchtime="$benchtime" -v goversion="$(go env GOVERSION)" '
  /^goos:/  { goos = $2 }
  /^goarch:/ { goarch = $2 }
  /^cpu:/   { sub(/^cpu: */, ""); cpu = $0 }
  /^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
    iters = $2
    m = ""
    for (i = 3; i + 1 <= NF; i += 2)
      m = m sprintf("%s\"%s\": %s", (m == "" ? "" : ", "), $(i + 1), $i)
    row = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}",
                  name, iters, m)
    rows = rows (rows == "" ? "" : ",\n") row
  }
  END {
    printf "{\n"
    printf "  \"pr\": %s,\n", pr
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n%s\n  ]\n}\n", rows
  }
' "$raw" >"$out"
echo "wrote $out" >&2
