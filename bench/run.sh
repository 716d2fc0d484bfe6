#!/usr/bin/env bash
# Builds the CAR-CS benchmark from the checkout's sources and runs it.
#
#   bash bench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare set1.jsonl set2.jsonl
#
# Run from the repository root. The build cache, the binary and every
# directory the benchmark writes stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" || ! -f "$root/BENCHMARK.json" ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, bench/go.mod, BENCHMARK.json)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOSUMDB=off
export BENCH_WORKDIR="$out"

go -C bench build -o "$out/carcs-bench" .
exec "$out/carcs-bench" "$@"
