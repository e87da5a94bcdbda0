#!/usr/bin/env bash
# run.sh — build the perfbench harness from source and run it. Run from
# the repository root; every argument passes through:
#
#   bash perfbench/run.sh --workload node-quad --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory: the binary, the Go build cache, the Go
# toolchain's own config and telemetry, and the traced run's spans.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -spans "$out" "$@"
