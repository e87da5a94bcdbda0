package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartbalance"
)

// update regenerates the committed golden files instead of comparing
// against them: go test ./cmd/sbtrace -update
var update = flag.Bool("update", false, "rewrite golden files")

// writeSeedTrace runs one deterministic SmartBalance scenario with
// telemetry attached and writes the canonical JSONL export to a temp
// file, returning its path. Only the seed varies between calls, so two
// different-seed traces diverge purely through the simulation.
func writeSeedTrace(t *testing.T, seed uint64) string {
	t.Helper()
	plat := smartbalance.QuadHMP()
	pred, err := smartbalance.TrainPredictor(plat.Types, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smartbalance.DefaultSmartBalanceConfig()
	cfg.Anneal.Seed = seed
	cfg.Clock = smartbalance.NewFakeClock(time.Microsecond)
	bal, err := smartbalance.NewSmartBalanceController(pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := smartbalance.DefaultKernelConfig()
	kcfg.Seed = seed
	sys, err := smartbalance.NewSystemWithConfig(plat, bal, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := sys.EnableTelemetry()
	tel.SetMeta("seed", "s") // fixed: the divergence must come from the run itself
	specs, err := smartbalance.Mix("Mix1", 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SpawnAll(specs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("seed%d.jsonl", seed))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := smartbalance.WriteTelemetryJSONL(f, tel.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sbtrace drives run() the way main does and returns exit code and
// captured stdout/stderr.
func sbtrace(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSummary(t *testing.T) {
	path := writeSeedTrace(t, 1)
	code, out, errOut := sbtrace("summary", path)
	if code != 0 {
		t.Fatalf("summary exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"meta balancer", "epochs", "spans", "sense", "migrate", "metrics", "anomalies"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

// TestFleetSummaryGolden pins the fleet-tier summary rendering against
// a committed trace and its golden output. The trace,
// testdata/fleet_small.jsonl, is the export of
//
//	sbfleet -nodes 2 -dur 100 -seed 3 -arrival "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25" -telemetry testdata/fleet_small.jsonl
//
// After an intentional change to the fleet or the format, re-run that
// command, then this test with -update.
func TestFleetSummaryGolden(t *testing.T) {
	fixture := filepath.Join("testdata", "fleet_small.jsonl")
	golden := filepath.Join("testdata", "fleet_summary.golden")
	code, out, errOut := sbtrace("summary", fixture)
	if code != 0 {
		t.Fatalf("summary exit %d, stderr: %s", code, errOut)
	}
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("fleet summary drifted from golden (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", out, want)
	}
	for _, frag := range []string{"meta tier         fleet", "fleet     nodes=2 policy=energy", "node   0 ", "node   1 ", "joules/request="} {
		if !strings.Contains(out, frag) {
			t.Errorf("fleet summary missing %q", frag)
		}
	}
}

func TestGrep(t *testing.T) {
	path := writeSeedTrace(t, 1)
	code, out, _ := sbtrace("grep", `phase=sense`, path)
	if code != 0 {
		t.Fatalf("grep exit %d", code)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.Contains(line, "phase=sense") {
			t.Fatalf("grep leaked non-matching line %q", line)
		}
	}
	if code, out, _ := sbtrace("grep", "no-such-token-anywhere", path); code != 1 || out != "" {
		t.Fatalf("no-match grep: exit %d, out %q; want exit 1 and no output", code, out)
	}
	if code, _, _ := sbtrace("grep", "(unclosed", path); code != 2 {
		t.Fatalf("bad pattern exit %d, want 2", code)
	}
}

// TestDiffLocalizesSeedDivergence is the acceptance criterion: two runs
// differing only in seed must diff to exit 1 naming the first divergent
// epoch, and identical runs to exit 0.
func TestDiffLocalizesSeedDivergence(t *testing.T) {
	a := writeSeedTrace(t, 1)
	b := writeSeedTrace(t, 1)
	code, out, errOut := sbtrace("diff", a, b)
	if code != 0 {
		t.Fatalf("same-seed diff: exit %d, out %q, stderr %q", code, out, errOut)
	}
	if !strings.Contains(out, "identical") {
		t.Fatalf("same-seed diff output %q", out)
	}

	c := writeSeedTrace(t, 2)
	code, out, _ = sbtrace("diff", a, c)
	if code != 1 {
		t.Fatalf("different-seed diff: exit %d, want 1 (out %q)", code, out)
	}
	if !strings.Contains(out, "first divergent epoch") {
		t.Fatalf("diff output does not localise: %q", out)
	}
}

func TestConvert(t *testing.T) {
	path := writeSeedTrace(t, 1)

	// jsonl round-trip: converting the canonical format re-emits the
	// input bytes exactly.
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := sbtrace("convert", "-format", "jsonl", path)
	if code != 0 {
		t.Fatalf("convert jsonl exit %d, stderr: %s", code, errOut)
	}
	if !bytes.Equal([]byte(out), orig) {
		t.Fatal("jsonl convert is not byte-identical to the input trace")
	}

	code, out, _ = sbtrace("convert", "-format", "chrome", path)
	if code != 0 {
		t.Fatalf("convert chrome exit %d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome output has no events")
	}

	code, out, _ = sbtrace("convert", "-format", "prom", path)
	if code != 0 {
		t.Fatalf("convert prom exit %d", code)
	}
	if !strings.Contains(out, "# TYPE") || !strings.Contains(out, "smartbalance_epochs_total") {
		t.Fatalf("prom output malformed:\n%s", out)
	}

	if code, _, _ := sbtrace("convert", "-format", "xml", path); code != 2 {
		t.Fatalf("unknown format exit %d, want 2", code)
	}
}

func TestUsageAndErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"summary"},
		{"summary", "/nonexistent/trace.jsonl"},
		{"grep", "x"},
		{"diff", "only-one.jsonl"},
		{"convert"},
	}
	for _, args := range cases {
		if code, _, _ := sbtrace(args...); code != 2 {
			t.Errorf("sbtrace %v exit %d, want 2", args, code)
		}
	}
	if code, out, _ := sbtrace("help"); code != 0 || !strings.Contains(out, "usage") {
		t.Errorf("help exit %d out %q", code, out)
	}
}
