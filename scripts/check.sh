#!/usr/bin/env bash
# check.sh — the full verification gate, run from anywhere in the repo.
# Mirrors what CI should run: formatting, go vet (the root module and
# the perfbench benchmark module, which ./... does not reach), the
# project's own sbvet determinism/safety analyzers, the build, and the
# race-enabled test suite, then ten more race runs of the fleet's
# shared-tick and reaping tests, whose helper goroutines interleave
# differently each run (the harvest reaps on the helpers). The fixed-seed contracts (sweep cache, fault robustness,
# telemetry, fleet and hunt determinism) and the epoch allocation
# ceilings are Go tests, so the race run covers them too.
# perfbench (BENCHMARK.json) is the repository's only benchmark; the
# committed BENCH_core.json is frozen history that nothing regenerates
# or checks. Fails fast on the first broken stage.
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

echo "== go -C perfbench vet ."
go -C perfbench vet .

echo "== sbvet ./... (includes the hotpath hard gate: zero unsuppressed"
echo "   allocations reachable from //sbvet:hotpath roots)"
go run ./cmd/sbvet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go test -race -count=10 (the fleet's shared ticks, claim protocol, helper lifetime and reaping)"
go test -race -count=10 -run '^(TestSharedTicksByteIdenticalAcrossWorkers|TestEveryTickIsShared|TestNoHelperOutlivesRun|TestNodesHoldOnlyRequestsInFlight)$' ./internal/fleet

echo "ok: all checks passed"
