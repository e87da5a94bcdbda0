#!/usr/bin/env bash
# check.sh — the full verification gate, run from anywhere in the repo.
# Mirrors what CI should run: formatting, go vet, the project's own
# sbvet determinism/safety analyzers, the build, the BENCH_core.json
# schema gate, and the race-enabled test suite. The fixed-seed
# contracts (sweep cache, fault robustness, telemetry, fleet and hunt
# determinism) are Go tests, so the race run covers them too. Fails
# fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== sbvet ./... (includes the hotpath hard gate: zero unsuppressed"
echo "   allocations reachable from //sbvet:hotpath roots)"
go run ./cmd/sbvet ./...

echo "== go build ./..."
go build ./...

echo "== bench-check"
./scripts/bench_check.sh

echo "== go test -race ./..."
go test -race ./...

echo "ok: all checks passed"
