package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"smartbalance"
)

// TestSynthWorkloadRuns drives a parametric synth: spec through the
// binary; sbsim shares the sweep engine's workload vocabulary.
func TestSynthWorkloadRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "synth:phases=1,ins=80,ilp=3,mem=0.3,wsd=384", "-threads", "2", "-dur", "200"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("sbsim %v exited %d: %s", args, code, stderr.String())
	}
}

// TestTelemetryIsAFunctionOfTheSeed runs one fixed scenario through the
// binary three times: the same seed must export byte-identical
// canonical JSONL, and a different seed must diverge at a named epoch
// once the traces are read back — the bisection contract sbtrace diff
// is built on.
func TestTelemetryIsAFunctionOfTheSeed(t *testing.T) {
	dir := t.TempDir()
	export := func(name, seed string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		var stdout, stderr bytes.Buffer
		args := []string{"-platform", "quad", "-workload", "Mix1", "-threads", "2",
			"-balancer", "smartbalance", "-dur", "400", "-seed", seed, "-telemetry", path}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("sbsim %v exited %d: %s", args, code, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := export("a.jsonl", "1"), export("b.jsonl", "1"), export("c.jsonl", "2")
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed telemetry exports differ")
	}
	read := func(data []byte) *smartbalance.TelemetryTrace {
		t.Helper()
		tr, err := smartbalance.ReadTelemetryJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	d := smartbalance.FirstTelemetryDivergence(read(a), read(c))
	if d == nil || (d.Kind != "epoch" && d.Kind != "anomalies") {
		t.Fatalf("seed 1 vs 2: divergence %v does not name an epoch", d)
	}
}
