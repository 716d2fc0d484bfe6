#!/usr/bin/env bash
# Benchmarks the working tree against another commit and compares the two.
#
#   scripts/bench_compare.sh <ref> [seeds]
#
# Checks <ref> out as a git worktree under $CARGO_TARGET_DIR (default
# .bench_build), then runs every workload BENCHMARK.json declares for seeds
# 1..seeds (default 10, the pairs a gain claim needs), each for
# BENCHMARK.json's run_seconds, on both trees. The tree that runs first
# alternates from seed to seed, so the host's slow drift does not favour
# either side. It ends with
# `bash bench/run.sh compare <ref set> <working-tree set>`, whose exit
# status it returns. The result sets stay in $CARGO_TARGET_DIR/compare.
#
# Runs offline and writes nothing outside $CARGO_TARGET_DIR; bench/ and
# BENCHMARK.json are only read.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
	echo "usage: scripts/bench_compare.sh <ref> [seeds]" >&2
	exit 2
fi
ref=$1
seeds=${2:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
cmp="$out/compare"
base="$cmp/base"

workloads=$(grep -o '{"name": *"[^"]*", *"why"' BENCHMARK.json | sed 's/{"name": *"\([^"]*\)".*/\1/' || true)
secs=$(grep -o '"run_seconds": *[0-9.]*' BENCHMARK.json | grep -o '[0-9.]*$' || true)
if [[ -z $workloads || -z $secs ]]; then
	echo "bench_compare: no workloads or run_seconds in BENCHMARK.json" >&2
	exit 2
fi

if [[ -d $base ]]; then
	git worktree remove --force "$base"
fi
rm -rf "$cmp"
mkdir -p "$cmp"
git worktree add --quiet --detach "$base" "$ref"
trap 'git worktree remove --force "$base"' EXIT
if [[ ! -f $base/bench/run.sh ]]; then
	echo "bench_compare: $ref has no bench/run.sh" >&2
	exit 2
fi

# run <tree> <side> <workload> <seed>: one run appended to <side>.jsonl,
# built under its own target directory so the two trees never share a
# binary.
run() {
	echo "bench_compare: seed $4 $3 on $2" >&2
	(cd "$1" && CARGO_TARGET_DIR="$cmp/build-$2" bash bench/run.sh \
		--workload "$3" --seed "$4" --seconds "$secs" --trace 0 \
		--out "$cmp/$2.jsonl" >/dev/null 2>"$cmp/last-$2.log") || {
		cat "$cmp/last-$2.log" >&2
		return 1
	}
}

for seed in $(seq 1 "$seeds"); do
	for wl in $workloads; do
		if ((seed % 2)); then
			run "$base" base "$wl" "$seed"
			run "$root" head "$wl" "$seed"
		else
			run "$root" head "$wl" "$seed"
			run "$base" base "$wl" "$seed"
		fi
	done
done

bash bench/run.sh compare "$cmp/base.jsonl" "$cmp/head.jsonl"
