GO ?= go

.PHONY: all build test race vet fmt check chaos figures bench bench-smoke bench-ingest bench-scale bench-scale-record train-eval clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check:
	./scripts/check.sh

# Fault-injection chaos drills: severed journal under mixed traffic, 4x
# saturation goodput, breaker trip/probe/recovery, and the replica kill
# drill (follower crashed and restarted mid-traffic behind the read
# router, zero read 5xx tolerated). Race-enabled.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestOverload|TestWriteBreakerLifecycle' \
		./internal/server/ ./internal/core/ ./internal/replica/

figures:
	$(GO) run ./cmd/figures

# Full benchmark run; writes BENCH_1.json for before/after comparison.
bench:
	./scripts/bench.sh

# One iteration of every benchmark — compilation and sanity, not timing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Ingest-throughput smoke: the single-worker ingest benchmarks with mat/s
# floors, guarding the group-commit + batched-publish fast path and the
# tokenize-once auto-classification path.
bench-ingest:
	./scripts/bench_ingest.sh

# Multi-tenant scale smoke: 10k synthetic materials across 4 workspaces
# through the real ingest pipeline, gated on aggregate mat/s. The nightly
# CI tier raises SCALE_N; bench-scale-record runs 10k/100k/1M and writes
# BENCH_6.json locally (not committed). The tracked benchmark is
# bash bench/run.sh, declared in BENCHMARK.json.
bench-scale:
	./scripts/bench_scale.sh

bench-scale-record:
	./scripts/bench_scale.sh -record

# Train the learned classifier over the embedded seed corpus and run the
# full evaluation with the regression gate; writes the machine-readable
# report to out/eval.json (the source of BENCH_5.json's eval block).
train-eval:
	@mkdir -p out
	$(GO) run ./cmd/carcs train
	$(GO) run ./cmd/carcs eval -gate -json out/eval.json

clean:
	rm -rf out/
