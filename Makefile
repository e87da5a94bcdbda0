# Convenience targets; scripts/check.sh is the canonical gate.

.PHONY: build test race vet sbvet perfbench check

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

# The repository benchmark's harness tests plus a one-second correctness
# run of each of its four workloads (each exits 1 on any violation).
perfbench:
	go -C perfbench test .
	bash perfbench/run.sh --workload node-quad --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload node-contended --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload node-scale --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload fleet-bursty --seed 1 --seconds 1 --trace 0

check:
	./scripts/check.sh
