package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runCLI drives the full binary flow and returns stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("sbfleet %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

func TestRunReportsHeadline(t *testing.T) {
	out := runCLI(t, "-nodes", "2", "-dur", "100", "-seed", "3", "-arrival", "uniform:rate=200")
	if !strings.Contains(out, "headline policy=energy nodes=2") {
		t.Errorf("missing headline line in output:\n%s", out)
	}
	if !strings.Contains(out, "joules/request") || !strings.Contains(out, "p99=") {
		t.Errorf("missing energy/latency report in output:\n%s", out)
	}
}

func TestCompareRunsEveryPolicy(t *testing.T) {
	out := runCLI(t, "-nodes", "2", "-dur", "100", "-seed", "3", "-compare")
	for _, pol := range []string{"rr", "least", "energy"} {
		if !strings.Contains(out, "headline policy="+pol+" ") {
			t.Errorf("compare output missing %s headline:\n%s", pol, out)
		}
	}
}

// TestStdoutAndTelemetryIdenticalAcrossWorkers runs the canned bursty
// scenario (the cell internal/fleet's policy test pins) serially and on
// eight workers: the parallel node stepper must not leak scheduling
// order into stdout or the telemetry export.
func TestStdoutAndTelemetryIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	telA := filepath.Join(dir, "a.jsonl")
	telB := filepath.Join(dir, "b.jsonl")
	canned := []string{"-nodes", "8", "-profile", "quad,biglittle", "-balancer", "smartbalance",
		"-arrival", "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25", "-dur", "400", "-seed", "7"}
	outA := runCLI(t, append(canned, "-workers", "1", "-telemetry", telA)...)
	outB := runCLI(t, append(canned, "-workers", "8", "-telemetry", telB)...)
	if outA != outB {
		t.Errorf("stdout differs between -workers 1 and 8:\n%s\nvs\n%s", outA, outB)
	}
	a, err := os.ReadFile(telA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(telB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("telemetry JSONL differs between -workers 1 and 8")
	}
	if len(a) == 0 {
		t.Error("telemetry export is empty")
	}
}

// TestReadmeCompareBlockIsCurrent runs README's worked -compare
// example and requires each line of README's console block to equal
// the output line for the same policy with its max= field dropped, so
// a change that moves these numbers must re-anchor README.
func TestReadmeCompareBlockIsCurrent(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "### sbfleet")
	_, block, ok := strings.Cut(section, "```console\n")
	block, _, closed := strings.Cut(block, "```")
	if !ok || !closed {
		t.Fatal("README's sbfleet section has no console block")
	}
	out := runCLI(t, "-nodes", "8", "-arrival", "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25",
		"-dur", "400", "-seed", "7", "-compare")
	maxField := regexp.MustCompile(` max=\s*[0-9.]+ms`)
	byPolicy := map[string]string{}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 1 && strings.HasPrefix(f[1], "joules/request=") {
			byPolicy[f[0]] = maxField.ReplaceAllString(l, "")
		}
	}
	lines := strings.Split(strings.TrimSpace(block), "\n")
	if len(lines) != 3 {
		t.Fatalf("README console block has %d lines, want one per policy:\n%s", len(lines), block)
	}
	for _, want := range lines {
		policy := strings.Fields(want)[0]
		if got := byPolicy[policy]; got != want {
			t.Errorf("README shows\n  %s\nbut sbfleet prints\n  %s", want, got)
		}
	}
}

func TestBadFlagsFail(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-policy", "random"}, 1},
		{[]string{"-arrival", "storm"}, 1},
		{[]string{"-nodes", "0"}, 1},
		{[]string{"-classes", "video"}, 1},
		{[]string{"-compare", "-telemetry", "x.jsonl"}, 1},
		{[]string{"-bogus"}, 1},
		{[]string{"-h"}, 0}, // help is not a failure
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.want {
			t.Errorf("sbfleet %v exited %d, want %d", c.args, code, c.want)
		}
	}
}
