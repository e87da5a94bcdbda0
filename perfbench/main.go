// Command perfbench is the repository benchmark. It runs one workload
// (node-quad, node-contended, node-scale or fleet-bursty) built from a
// seed for a fixed host-time budget, checks the simulated outputs, and
// prints every metric by name and unit. The last line of standard
// output is one JSON object: the end-to-end metrics BENCHMARK.json
// gates on, or, with -trace 1, the per-layer metrics of a separate
// traced run whose spans are written to the -spans directory.
//
//	perfbench -workload node-quad -seed 1 -seconds 10 -trace 0
//
// It exits 1 on any correctness violation and 2 on a usage error.
// README.md records why each workload exists and what each metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// minRuns is the fewest measured runs a phase makes, however short the
// budget.
const minRuns = 3

// value is one reported metric.
type value struct {
	name, unit string
	v          float64
	note       string
}

// outcome is everything one benchmark invocation measured and checked.
type outcome struct {
	endToEnd   []value
	layers     []value
	digest     string
	attempted  int
	failed     int
	violations []string
	spans      *tracer
	refNs      float64 // lower quartile of the runs' calibration times
}

// gatedEndToEnd are the end-to-end metrics every workload reports and
// BENCHMARK.json gates on; the workload-specific ones are printed as
// report lines only.
var gatedEndToEnd = []string{"sim_s_per_host_s", "setup_s", "heap_peak_mb", "alloc_mb_per_sim_s", "sim_power_w"}

// perLayer lists every per-layer metric and its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.rebalance_us_p50", "us"},
	{"core.rebalance_us_p99", "us"},
	{"core.sense_us", "us"},
	{"core.predict_us", "us"},
	{"core.optimize_us", "us"},
	{"core.migrate_us", "us"},
	{"core.migrations_per_epoch", "count"},
	{"core.skipped_epochs", "count"},
	{"core.train_ms", "ms"},
	{"kernel.self_us_per_epoch", "us"},
	{"kernel.slices_per_epoch", "count"},
	{"kernel.wakes_per_epoch", "count"},
	{"kernel.migrations_per_epoch", "count"},
	{"kernel.ns_per_slice", "ns"},
	{"kernel.spawn_ms", "ms"},
	{"balancer.rebalance_us_p50", "us"},
	{"workload.build_ms", "ms"},
	{"contention.max_pressure", "ratio"},
	{"contention.max_bw_util", "ratio"},
	{"fleet.new_ms", "ms"},
	{"fleet.new_cold_ms", "ms"},
	{"fleet.host_us_per_request", "us"},
	{"fleet.late_cost_ratio", "ratio"},
	{"fleet.workers_speedup", "ratio"},
	{"fleet.inflight_at_deadline", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace_overhead_pct", "%"},
	{"trace.residual_pct", "%"},
}

// hostPower is the power of host time in the unit of every host-timed
// metric: 1 for durations, -1 for rates per host second. calibrate
// scales exactly these; every other metric is simulated, a count or a
// ratio of host times.
var hostPower = map[string]int{
	"sim_s_per_host_s":          -1,
	"requests_per_host_s":       -1,
	"epoch_host_us_p50":         1,
	"epoch_host_us_p99":         1,
	"setup_s":                   1,
	"core.rebalance_us_p50":     1,
	"core.rebalance_us_p99":     1,
	"core.sense_us":             1,
	"core.predict_us":           1,
	"core.optimize_us":          1,
	"core.migrate_us":           1,
	"core.train_ms":             1,
	"kernel.self_us_per_epoch":  1,
	"kernel.ns_per_slice":       1,
	"kernel.spawn_ms":           1,
	"balancer.rebalance_us_p50": 1,
	"workload.build_ms":         1,
	"fleet.new_ms":              1,
	"fleet.new_cold_ms":         1,
	"fleet.host_us_per_request": 1,
	"go.gc_pause_ms":            1,
}

// calibrate expresses host-timed metrics at the nominal host speed:
// durations scale by refNominalNs/refNs, rates by its inverse.
func calibrate(vs []value, refNs float64) {
	for i := range vs {
		if p := hostPower[vs[i].name]; p != 0 {
			vs[i].v *= math.Pow(refNominalNs/refNs, float64(p))
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "node-quad | node-contended | node-scale | fleet-bursty")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 10, "host seconds to measure")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		spansDir = fs.String("spans", ".bench_build/perfbench", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1
	clock := newHostClock()

	var out *outcome
	var err error
	if *name == "fleet-bursty" {
		out, err = fleetOutcome(*seed, budget, traced, clock)
	} else if w, ok := nodeWorkloadByName(*name); ok {
		out, err = nodeOutcome(w, *seed, budget, traced, clock)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	calibrate(out.endToEnd, out.refNs)
	calibrate(out.layers, out.refNs)
	out.endToEnd = append(out.endToEnd, value{"host_ref_ms", "ms", out.refNs / 1e6,
		fmt.Sprintf("calibration time; host-timed metrics are scaled to %g ms", refNominalNs/1e6)})
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	printValues(stdout, "e2e", out.endToEnd)
	printValues(stdout, "layer", out.layers)
	fmt.Fprintf(stdout, "digest %s\n", out.digest)
	for _, v := range out.violations {
		fmt.Fprintf(stdout, "violation %s\n", v)
	}
	if out.spans != nil {
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d -> %s\n", len(out.spans.spans), path)
	}

	res := jsonResult{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	var want []value
	if traced {
		byName := index(out.layers)
		for _, m := range perLayer {
			want = append(want, value{name: m.name, unit: m.unit, v: byName[m.name].v})
		}
	} else {
		byName := index(out.endToEnd)
		for _, n := range gatedEndToEnd {
			v, ok := byName[n]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s reports no %s\n", *name, n)
				return 1
			}
			want = append(want, v)
		}
	}
	for _, m := range want {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", m.name)
			return 1
		}
		res.Metrics[m.name] = jsonMetric{m.v, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func index(vs []value) map[string]value {
	m := make(map[string]value, len(vs))
	for _, v := range vs {
		m[v.name] = v
	}
	return m
}

func printValues(w io.Writer, kind string, vs []value) {
	for _, v := range vs {
		fmt.Fprintf(w, "%-5s %-28s %16.6g %-8s %s\n", kind, v.name, v.v, v.unit, v.note)
	}
}
