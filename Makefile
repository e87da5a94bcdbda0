# Convenience targets; scripts/check.sh is the canonical gate.

.PHONY: build test race vet sbvet sweep-check fault-check telemetry-check fleet-check bench bench-check perfbench hunt-check contention-check check

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

sbvet:
	go run ./cmd/sbvet ./...

sweep-check:
	./scripts/sweep_check.sh

fault-check:
	./scripts/fault_check.sh

telemetry-check:
	./scripts/telemetry_check.sh

fleet-check:
	./scripts/fleet_check.sh

bench:
	./scripts/bench.sh

bench-check:
	./scripts/bench_check.sh

# The repository benchmark's harness tests plus one-second node-contended
# and node-scale correctness runs (each exits 1 on any violation).
perfbench:
	go -C perfbench test .
	bash perfbench/run.sh --workload node-contended --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload node-scale --seed 1 --seconds 1 --trace 0

hunt-check:
	./scripts/hunt_check.sh

contention-check:
	./scripts/contention_check.sh

check:
	./scripts/check.sh
