#!/bin/sh
# Full pre-merge gate: formatting, vet, build, and the race-enabled test
# suite. Run from the repository root (make check does).
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race -shuffle=on =="
go test -race -shuffle=on ./...

echo "== fuzz pmap (10s) =="
go test -run '^$' -fuzz '^FuzzMapOps$' -fuzztime 10s ./internal/pmap

echo "== fuzz checkpoint restore (10s) =="
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s ./internal/core

echo "== fuzz WAL scan (10s) =="
go test -run '^$' -fuzz '^FuzzScan$' -fuzztime 10s ./internal/journal

# bench/ is its own Go module: the root ./... never compiles it.
echo "== bench module vet + test =="
(cd bench && go vet ./... && go test ./...)

echo "== chaos drill =="
make chaos

echo "== bench smoke (1 iteration) =="
go test -run '^$' -bench . -benchtime 1x . > /dev/null

echo "== ingest throughput floor =="
make bench-ingest

echo "== multi-tenant scale smoke (10k) =="
make bench-scale

echo "== examples smoke =="
for ex in examples/*/; do
    go run "./$ex" > /dev/null
done

echo "== learned-model eval gate =="
go run ./cmd/carcs eval -gate > /dev/null

echo "== OK =="
