package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"smartbalance"
)

func TestParsePlatform(t *testing.T) {
	p, err := parsePlatform("quad")
	if err != nil || p.NumCores() != 4 {
		t.Fatalf("quad: %v", err)
	}
	p, err = parsePlatform("biglittle")
	if err != nil || p.NumCores() != 8 {
		t.Fatalf("biglittle: %v", err)
	}
	p, err = parsePlatform("scaling:12")
	if err != nil || p.NumCores() != 12 {
		t.Fatalf("scaling: %v", err)
	}
	for _, bad := range []string{"", "mega", "scaling:", "scaling:x", "scaling:0"} {
		if _, err := parsePlatform(bad); err == nil {
			t.Errorf("platform %q accepted", bad)
		}
	}
}

func TestParseWorkload(t *testing.T) {
	specs, err := parseWorkload("Mix3", 2, 1)
	if err != nil || len(specs) != 4 { // 2 benchmarks x 2 threads
		t.Fatalf("Mix3: %d specs, %v", len(specs), err)
	}
	specs, err = parseWorkload("canneal", 3, 1)
	if err != nil || len(specs) != 3 {
		t.Fatalf("canneal: %v", err)
	}
	specs, err = parseWorkload("imb:HTMI", 2, 1)
	if err != nil || len(specs) != 2 {
		t.Fatalf("imb:HTMI: %v", err)
	}
	// Short IMB form.
	if _, err := parseWorkload("imb:LM", 1, 1); err != nil {
		t.Fatalf("imb:LM: %v", err)
	}
	for _, bad := range []string{"nope", "imb:", "imb:XTMI", "imb:HTMIX"} {
		if _, err := parseWorkload(bad, 2, 1); err == nil {
			t.Errorf("workload %q accepted", bad)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]smartbalance.Level{
		"H": smartbalance.High, "m": smartbalance.Medium, "L": smartbalance.Low,
	} {
		got, err := parseLevel(s)
		if err != nil || got != want {
			t.Fatalf("parseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseLevel("z"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestParseBalancer(t *testing.T) {
	quad := smartbalance.QuadHMP()
	bl := smartbalance.OctaBigLittle()
	if b, err := parseBalancer("vanilla", quad, 1); err != nil || b.Name() != "vanilla-linux" {
		t.Fatalf("vanilla: %v", err)
	}
	if b, err := parseBalancer("pinned", quad, 1); err != nil || b.Name() != "pinned" {
		t.Fatalf("pinned: %v", err)
	}
	if b, err := parseBalancer("gts", bl, 1); err != nil || b.Name() != "arm-gts" {
		t.Fatalf("gts: %v", err)
	}
	if b, err := parseBalancer("iks", bl, 1); err != nil || b.Name() != "linaro-iks" {
		t.Fatalf("iks: %v", err)
	}
	if b, err := parseBalancer("smartbalance", quad, 1); err != nil || b.Name() != "smartbalance" {
		t.Fatalf("smartbalance: %v", err)
	}
	if _, err := parseBalancer("gts", quad, 1); err == nil {
		t.Fatal("gts on quad accepted")
	}
	if _, err := parseBalancer("nope", quad, 1); err == nil {
		t.Fatal("unknown balancer accepted")
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
