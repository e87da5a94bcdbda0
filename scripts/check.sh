#!/usr/bin/env bash
# check.sh — the full verification gate, run from anywhere in the repo.
# Mirrors what CI should run: formatting, go vet, the project's own
# sbvet determinism/safety analyzers, the build, and the race-enabled
# test suite. Fails fast on the first broken stage.
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

echo "== sweep-check"
./scripts/sweep_check.sh

echo "== fault-check"
./scripts/fault_check.sh

echo "== telemetry-check"
./scripts/telemetry_check.sh

echo "== fleet-check"
./scripts/fleet_check.sh

echo "== bench-check"
./scripts/bench_check.sh

echo "== hunt-check"
./scripts/hunt_check.sh

echo "== contention-check"
./scripts/contention_check.sh

echo "== go test -race ./..."
go test -race ./...

echo "ok: all checks passed"
