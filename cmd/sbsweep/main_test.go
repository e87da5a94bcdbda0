package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		name  string
		split func(string) []string
		in    string
		want  []string
	}{
		{"splitList", splitList, " a, b ,,c ", []string{"a", "b", "c"}},
		{"splitList", splitList, "", nil},
		// -faults: plans separate their keys with ';', so every comma splits.
		{"splitList", splitList, "none,drop=0.3;migfail=0.1", []string{"none", "drop=0.3;migfail=0.1"}},
		// -workloads, -contentions, -fleet-arrivals: a bare key=value
		// continues the spec before it.
		{"splitSpecs", splitSpecs, "Mix1,synth:phases=1,ins=80,ilp=3,mem=0.3,wsd=384",
			[]string{"Mix1", "synth:phases=1,ins=80,ilp=3,mem=0.3,wsd=384"}},
		{"splitSpecs", splitSpecs, "none, on,llc=512", []string{"none", "on,llc=512"}},
		{"splitSpecs", splitSpecs, "bursty,diurnal:rate=400,depth=0.5", []string{"bursty", "diurnal:rate=400,depth=0.5"}},
	} {
		if got := tc.split(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("%s(%q) = %q, want %q", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("2,4,8")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	for _, bad := range []string{"x", "2,4x", "1.5"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("counts %q accepted", bad)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1,5,10-13")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 5, 10, 11, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("parseSeeds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSeeds = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"x", "3-1", "1-x", "-4", "0-2000000"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("seeds %q accepted", bad)
		}
	}
}

// TestRunColdWarmIdentical drives the full binary flow twice against
// one cache directory: the warm rerun must be served entirely from the
// cache, print byte-identical canonical output, and say so in its
// Prometheus export — zero misses, and no executed-jobs sample (that
// counter registers lazily, so a fully cached run never creates it).
func TestRunColdWarmIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-platforms", "quad", "-balancers", "vanilla,pinned",
		"-workloads", "Mix1,swaptions", "-threads", "2", "-seeds", "1-2",
		"-dur", "60", "-cache", filepath.Join(dir, "cache"), "-json",
	}
	var out1, err1, out2, err2 bytes.Buffer
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("cold run exited %d\n%s", code, err1.String())
	}
	prom := filepath.Join(dir, "warm.prom")
	warm := append(append([]string{}, args...), "-expect-cached", "-times", "-progress", "-telemetry", prom)
	if code := run(warm, &out2, &err2); code != 0 {
		t.Fatalf("warm run exited %d\n%s", code, err2.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("warm stdout differs from cold:\n--- cold\n%s\n--- warm\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(err2.String(), "cached=8") {
		t.Fatalf("warm run not fully cached:\n%s", err2.String())
	}
	text, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	if !slices.Contains(lines, "sweep_cache_misses_total 0") {
		t.Errorf("warm export lacks sweep_cache_misses_total 0:\n%s", text)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "sweep_jobs_executed_total ") && l != "sweep_jobs_executed_total 0" {
			t.Errorf("warm export reports executed jobs: %s", l)
		}
	}
}

// TestRunContentionBusAxis: a bus spec rides the -contentions axis
// whole, keys its own cell, and its shared memory bus costs the
// streaming canneal threads energy efficiency.
func TestRunContentionBusAxis(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-platforms", "quad", "-balancers", "vanilla", "-workloads", "canneal",
		"-contentions", "none,on,bus=2", "-json",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errw.String())
	}
	type row struct {
		Key     string
		Error   string
		Outcome struct {
			IPSPerWatt float64 `json:"ips_per_watt"`
		}
	}
	var rows []row
	dec := json.NewDecoder(&out)
	for dec.More() {
		var r row
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	if len(rows) != 2 || rows[0].Error != "" || rows[1].Error != "" {
		t.Fatalf("want two ok jobs, got %+v", rows)
	}
	if !strings.HasSuffix(rows[1].Key, "/c[on,bus=2]") {
		t.Fatalf("bus cell keyed %q, want suffix /c[on,bus=2]", rows[1].Key)
	}
	if free, bus := rows[0].Outcome.IPSPerWatt, rows[1].Outcome.IPSPerWatt; !(bus < free) {
		t.Fatalf("bus cell IPS/W %g not below the uncontended %g", bus, free)
	}
}

// TestRunExpectCachedCold: a cold run under -expect-cached exits 2.
func TestRunExpectCachedCold(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-balancers", "vanilla", "-workloads", "Mix1", "-threads", "2",
		"-dur", "20", "-cache", t.TempDir(), "-expect-cached",
	}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, errw.String())
	}
}

// TestRunScenarioFailureExitsOne: a failing scenario (gts on the
// four-type quad platform) is an error row plus exit 1, not an abort.
func TestRunScenarioFailureExitsOne(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-balancers", "gts,vanilla", "-workloads", "Mix1", "-threads", "2",
		"-dur", "20",
	}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "ERROR:") {
		t.Fatalf("error row missing:\n%s", out.String())
	}
	// The healthy vanilla scenarios still produced rows.
	if !strings.Contains(out.String(), "quad/vanilla/Mix1/t2/s1/d20ms") {
		t.Fatalf("healthy rows missing:\n%s", out.String())
	}
}

func TestRunBadFlagsExitOne(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-seeds", "x"}, 1},
		{[]string{"-threads", "x"}, 1},
		{[]string{"-seeds", ""}, 1},
		{[]string{"-dur", "0"}, 1},
		{[]string{"-h"}, 0}, // help is not a bad flag
	} {
		var out, errw bytes.Buffer
		if code := run(c.args, &out, &errw); code != c.want {
			t.Errorf("args %v: exit %d, want %d", c.args, code, c.want)
		}
	}
}

// TestRunFleetColdWarm drives the fleet tier through run() on the same
// tail as the node tier: a warm rerun against one cache prints
// byte-identical stdout, -expect-cached exits 2 cold and 0 warm,
// -times prints one line per cell, and -telemetry writes the export.
// Fleet cells carry no IPS/W, so the export observes no scenario
// efficiency.
func TestRunFleetColdWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-fleet", "-fleet-nodes", "2", "-fleet-policies", "rr", "-balancers", "vanilla",
		"-dur", "100", "-cache", filepath.Join(dir, "cache"), "-expect-cached", "-times",
	}
	var out1, err1, out2, err2 bytes.Buffer
	if code := run(args, &out1, &err1); code != 2 {
		t.Fatalf("cold run exited %d, want 2\n%s", code, err1.String())
	}
	prom := filepath.Join(dir, "warm.prom")
	if code := run(append(args, "-telemetry", prom), &out2, &err2); code != 0 {
		t.Fatalf("warm run exited %d, want 0\n%s", code, err2.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("warm stdout differs from cold:\n--- cold\n%s\n--- warm\n%s", out1.String(), out2.String())
	}
	for _, tc := range []struct {
		run, src string
		stderr   *bytes.Buffer
	}{{"cold", "ran ", &err1}, {"warm", "cache ", &err2}} {
		n := 0
		for _, l := range strings.Split(tc.stderr.String(), "\n") {
			if strings.HasPrefix(l, tc.src) && strings.Contains(l, "fleet/n2/") {
				n++
			}
		}
		if n != 2 {
			t.Errorf("%s run: %d -times lines starting %q, want one per cell (2):\n%s", tc.run, n, tc.src, tc.stderr.String())
		}
	}
	text, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	if !slices.Contains(lines, "sweep_jobs_total 2") {
		t.Errorf("export lacks sweep_jobs_total 2:\n%s", text)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "sweep_scenario_ee_count ") && l != "sweep_scenario_ee_count 0" {
			t.Errorf("fleet cells observed as scenario efficiency: %s", l)
		}
	}
}
