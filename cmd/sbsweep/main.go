// Command sbsweep expands a scenario grid (platform x balancer x
// workload x threads x seed x fault plan) and runs it on the
// deterministic parallel sweep engine, with optional content-addressed
// result caching.
//
// Canonical results — the table or JSON lines — go to stdout and are
// byte-identical for any worker count and any cache state; timing,
// progress, and cache statistics are operator-facing side channels on
// stderr.
//
// Usage:
//
//	sbsweep -balancers vanilla,smartbalance -workloads Mix1,Mix5 -seeds 1-8
//	sbsweep -platforms biglittle -balancers gts,iks,smartbalance -workloads bodytrack -json
//	sbsweep -cache /tmp/sbcache -seeds 1-32 -progress
//
// Exit status: 0 on success, 1 if any scenario failed or the input was
// malformed, 2 if -expect-cached was set and at least one job had to
// execute.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"smartbalance/internal/core"
	"smartbalance/internal/sweep"
	"smartbalance/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, so tests can drive the full binary flow.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		platforms = fs.String("platforms", "quad", "comma-separated platforms: quad | biglittle | scaling:<n>")
		balancers = fs.String("balancers", "vanilla,smartbalance", "comma-separated balancers: smartbalance | vanilla | gts | iks | pinned")
		workloads = fs.String("workloads", "Mix1", `comma-separated workloads: benchmark name, MixN, imb:<T><I>, or synth:key=value,... (e.g. "Mix1,synth:phases=1,ins=80")`)
		threads   = fs.String("threads", "4", "comma-separated worker-thread counts")
		seeds     = fs.String("seeds", "1", "comma-separated seeds; a-b expands the inclusive range")
		faults    = fs.String("faults", "", `comma-separated fault plans, e.g. "none,drop=0.3;migfail=0.1" (empty sweeps clean)`)
		contSpecs = fs.String("contentions", "", `comma-separated contention specs, e.g. "none,on", "none,on,llc=512" or "none,on,bus=2" (keys llc, bw, bus, slope; bus=<GB/s> adds the chip-wide memory bus; empty sweeps uncontended)`)
		durMs     = fs.Int64("dur", 1500, "simulated duration per scenario in milliseconds")
		workers   = fs.Int("workers", 0, "sweep worker pool size (<= 0 selects GOMAXPROCS)")
		cacheDir  = fs.String("cache", "", "content-addressed result-cache directory (empty disables caching)")
		salt      = fs.String("salt", "", "extra fingerprint salt, for cache isolation between builds")
		jsonOut   = fs.Bool("json", false, "emit canonical JSON lines instead of a table")
		times     = fs.Bool("times", false, "print per-scenario wall times to stderr")
		progress  = fs.Bool("progress", false, "print live per-job status to stderr")
		expectHit = fs.Bool("expect-cached", false, "exit 2 if any job executed instead of being served from the cache")
		telPath   = fs.String("telemetry", "", "write the sweep's telemetry to this file (.prom writes Prometheus text, anything else canonical JSONL)")

		fleetMode     = fs.Bool("fleet", false, "sweep the fleet tier instead of single-node scenarios (grids nodes x policy x arrival; -balancers, -seeds, -dur still apply)")
		fleetNodes    = fs.String("fleet-nodes", "8", "comma-separated fleet sizes (with -fleet)")
		fleetPolicies = fs.String("fleet-policies", "rr,least,energy", "comma-separated dispatch policies (with -fleet)")
		fleetArrivals = fs.String("fleet-arrivals", "bursty", `comma-separated arrival specs: uniform | diurnal | bursty[:key=value,...] (e.g. "uniform:rate=300,bursty"; with -fleet)`)
		fleetProfiles = fs.String("fleet-profiles", "quad,biglittle", "comma-separated node-platform profiles; each profile is itself a +-separated cycle, e.g. quad+biglittle (with -fleet)")
	)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 1
	}

	// The two tiers differ only in their tasks and table renderer;
	// execution, reporting and the exit status are shared.
	var (
		tasks  []sweep.Task
		err    error
		tier   string // labels the summary line
		render = sweep.RenderTable
	)
	if *fleetMode {
		tier, render = "fleet ", sweep.RenderFleetTable
		tasks, err = fleetTasks(sweep.FleetGrid{
			Profiles:   splitList(*fleetProfiles),
			Balancers:  splitList(*balancers),
			Policies:   splitList(*fleetPolicies),
			Arrivals:   splitSpecs(*fleetArrivals),
			DurationNs: *durMs * 1e6,
		}, *fleetNodes, *seeds, *salt)
	} else {
		tasks, err = nodeTasks(sweep.Grid{
			Platforms:   splitList(*platforms),
			Balancers:   splitList(*balancers),
			Workloads:   splitSpecs(*workloads),
			Faults:      splitList(*faults),
			Contentions: splitSpecs(*contSpecs),
			DurationNs:  *durMs * 1e6,
		}, *threads, *seeds, *salt)
	}
	if err != nil {
		fmt.Fprintf(stderr, "sbsweep: %v\n", err)
		return 1
	}

	opts := sweep.Options{
		Workers: *workers,
		// The binary boundary is where real time may enter: per-job
		// timing below is operator-facing only and never reaches the
		// canonical stdout report.
		NewClock: core.RealClock,
	}
	var cache *sweep.Cache
	if *cacheDir != "" {
		if cache, err = sweep.OpenCache(*cacheDir); err != nil {
			fmt.Fprintf(stderr, "sbsweep: %v\n", err)
			return 1
		}
		opts.Cache = cache
	}
	if *progress {
		opts.OnProgress = func(p sweep.Progress) {
			switch p.Status {
			case sweep.StatusFailed:
				fmt.Fprintf(stderr, "[%d/%d] %-8s %s: %v\n", p.Index+1, p.Total, p.Status, p.Key, p.Err)
			default:
				fmt.Fprintf(stderr, "[%d/%d] %-8s %s\n", p.Index+1, p.Total, p.Status, p.Key)
			}
		}
	}

	t0 := time.Now() //sbvet:allow wallclock(binary boundary: operator-facing sweep timing on stderr only)
	results, err := sweep.Execute(tasks, opts)
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintf(stderr, "sbsweep: %v\n", err)
		return 1
	}

	if *jsonOut {
		err = sweep.WriteJSONL(stdout, results)
	} else {
		err = render(stdout, results)
	}
	if err != nil {
		fmt.Fprintf(stderr, "sbsweep: %v\n", err)
		return 1
	}

	if *times {
		for i := range results {
			r := &results[i]
			src := "ran"
			if r.Cached {
				src = "cache"
			}
			fmt.Fprintf(stderr, "%-6s %8.1fms  %s\n", src, float64(r.WallNs)/1e6, r.Key)
		}
	}
	s := sweep.Summarize(results)
	fmt.Fprintf(stderr, "sbsweep: %sjobs=%d ok=%d failed=%d cached=%d workers=%d wall=%v\n",
		tier, s.Jobs, s.OK, s.Failed, s.Cached, sweep.Workers(*workers), wall.Round(time.Millisecond))
	if cache != nil {
		cs := cache.Stats()
		fmt.Fprintf(stderr, "sbsweep: cache %s: hits=%d misses=%d writes=%d write-errors=%d corrupt-evicted=%d\n",
			cache.Dir(), cs.Hits, cs.Misses, cs.Writes, cs.WriteErrs, cs.Corrupt)
	}
	for _, st := range s.Stacks {
		fmt.Fprintf(stderr, "sbsweep: recovered panic in %s\n", st)
	}
	if *telPath != "" {
		tel := telemetry.New()
		tel.SetMeta("tool", "sbsweep")
		sweep.RecordJobs(tel, results)
		scenarios := results
		if *fleetMode {
			scenarios = nil // fleet cells have no IPS/W to observe
		}
		sweep.RecordTelemetry(tel, scenarios, cache)
		if err := writeTelemetry(*telPath, tel); err != nil {
			fmt.Fprintf(stderr, "sbsweep: telemetry: %v\n", err)
			return 1
		}
	}

	if s.Failed > 0 {
		return 1
	}
	if *expectHit && s.Cached < s.Jobs {
		fmt.Fprintf(stderr, "sbsweep: -expect-cached: %d of %d jobs executed\n", s.Jobs-s.Cached, s.Jobs)
		return 2
	}
	return 0
}

// nodeTasks completes grid's thread and seed axes from their flags and
// expands it into single-node scenario tasks.
func nodeTasks(grid sweep.Grid, threads, seeds, salt string) ([]sweep.Task, error) {
	var err error
	if grid.Threads, err = parseInts(threads); err != nil {
		return nil, fmt.Errorf("-threads: %v", err)
	}
	if grid.Seeds, err = parseSeeds(seeds); err != nil {
		return nil, fmt.Errorf("-seeds: %v", err)
	}
	scs, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	return sweep.Tasks(scs, salt)
}

// fleetTasks completes grid's node-count and seed axes from their flags
// and expands it into fleet-tier tasks.
func fleetTasks(grid sweep.FleetGrid, nodes, seeds, salt string) ([]sweep.Task, error) {
	// Profile cycles are "+"-separated in the flag (a profile is itself
	// a comma list, which would collide with the axis separator).
	for i, p := range grid.Profiles {
		grid.Profiles[i] = strings.ReplaceAll(p, "+", ",")
	}
	var err error
	if grid.Nodes, err = parseInts(nodes); err != nil {
		return nil, fmt.Errorf("-fleet-nodes: %v", err)
	}
	if grid.Seeds, err = parseSeeds(seeds); err != nil {
		return nil, fmt.Errorf("-seeds: %v", err)
	}
	scs, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	return sweep.FleetTasks(scs, salt)
}

// writeTelemetry exports the sweep telemetry: Prometheus text
// for .prom paths, canonical JSONL otherwise.
func writeTelemetry(path string, tel *telemetry.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := tel.Trace()
	if strings.HasSuffix(path, ".prom") {
		err = telemetry.WriteProm(f, tr)
	} else {
		err = telemetry.WriteJSONL(f, tr)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitSpecs is splitList for the axes whose specs carry their own
// comma-separated key=value parameters (synth workloads, contention
// and arrival specs): a bare key=value item continues the spec before
// it, so "on,llc=512" stays one spec. Fault plans separate their keys
// with ';' and keep plain splitting.
func splitSpecs(s string) []string {
	var out []string
	for _, part := range splitList(s) {
		if n := len(out); n > 0 && strings.Contains(part, "=") && !strings.Contains(part, ":") {
			out[n-1] += "," + part
			continue
		}
		out = append(out, part)
	}
	return out
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseSeeds parses a comma-separated seed list where each item is a
// single seed or an inclusive range "a-b" (e.g. "1,5,10-14").
func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range splitList(s) {
		lo, hi, ok := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		if !ok {
			out = append(out, a)
			continue
		}
		b, err := strconv.ParseUint(hi, 10, 64)
		if err != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", part)
		}
		if b-a >= 1<<20 {
			return nil, fmt.Errorf("seed range %q too large", part)
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}
