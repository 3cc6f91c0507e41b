#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live in .bench_build/ at the root of
# the checkout, so a run writes nothing outside it. The first build
# compiles the standard library into that cache (about 30 s on 2 vCPUs);
# later builds take well under a second.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/plbbench" .
exec "$out/plbbench" "$@"
