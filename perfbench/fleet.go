package main

import (
	"fmt"
	"runtime"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/fleet"
)

// The fleet-bursty workload: the sbfleet canned run (8 nodes alternating
// the quad and big.LITTLE platforms, SmartBalance inside every node,
// the energy dispatch policy, bursty MMPP arrivals) over a fixed 5 s
// admission window. The length is fixed because host cost per request
// grows with run length (README.md, finding 2).
const (
	fleetNodes   = 8
	fleetProfile = "quad,biglittle"
	fleetArrival = "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25"
	fleetSimNs   = 5e9
	fleetWorkers = 2
)

func fleetConfig(seed uint64, durNs int64, workers int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Nodes = fleetNodes
	cfg.Profile = fleetProfile
	cfg.Balancer = "smartbalance"
	cfg.Policy = string(fleet.PolicyEnergy)
	cfg.Arrival = fleetArrival
	cfg.Seed = seed
	cfg.DurationNs = durNs
	cfg.Workers = workers
	return cfg
}

// fleetTypeSets are the core-type sets of the profile's platforms: the
// predictors a cold fleet.New trains through its process-global memo.
func fleetTypeSets() [][]arch.CoreType {
	return [][]arch.CoreType{arch.QuadHMP().Types, arch.OctaBigLittle().Types}
}

// fleetRun is the outcome of one fleet set-up and Run.
type fleetRun struct {
	res        *fleet.Result
	refNs      float64 // calibration time just before set-up
	setupNs    int64
	newNs      int64
	runNs      int64
	mem        memDelta
	heap       uint64
	digest     string
	violations []string
}

// runFleet sets up and runs one fleet; runSpan names Run's span. The
// predictor memo inside fleet.New is process-global, so only the first
// call in a process trains. Set-up therefore times core.Train for each
// of the profile's type sets, which is exactly that cold training,
// followed by fleet.New, which then hits the memo: every run pays the
// set-up a fresh process pays.
func runFleet(cfg fleet.Config, clock hostClock, tr *tracer, run int, runSpan string) (*fleetRun, error) {
	r := &fleetRun{}
	base := liveHeap()
	r.refNs = referenceNs(clock)
	start := clock.now()
	root := tr.add(spanIteration, start, start, -1, run)
	tc := core.DefaultTrainConfig()
	tc.Seed = cfg.Seed
	for _, types := range fleetTypeSets() {
		if _, err := core.Train(types, tc); err != nil {
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
	}
	t0 := clock.now()
	tr.add(spanTrain, start, t0, root, run)
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet set-up: %w", err)
	}
	t1 := clock.now()
	r.newNs = t1 - t0
	r.setupNs = t1 - start
	tr.add(spanFleetNew, t0, t1, root, run)

	before := memMark()
	t2 := clock.now()
	res, err := f.Run()
	t3 := clock.now()
	r.mem = memSince(before)
	if err != nil {
		return nil, fmt.Errorf("fleet run: %w", err)
	}
	r.heap = heapGrowth(base)
	r.runNs = t3 - t2
	tr.setEnd(root, t3)
	tr.add(runSpan, t2, t3, root, run)

	r.res = res
	if res.Requests == 0 || res.Completed+res.InFlight != res.Requests {
		r.violations = append(r.violations, fmt.Sprintf("fleet: completed %d + in flight %d != admitted %d",
			res.Completed, res.InFlight, res.Requests))
	}
	if res.EnergyJ <= 0 {
		r.violations = append(r.violations, "fleet: run used no energy")
	}
	r.digest = digestOf(res)
	runtime.KeepAlive(f)
	return r, nil
}

// fleetEndToEnd distils the end-to-end metrics of a set of runs.
func fleetEndToEnd(runs [][]*fleetRun) []value {
	simS := func(r *fleetRun) float64 { return float64(r.res.ElapsedNs) / 1e9 }
	runNs := variantHostNs(runs, func(r *fleetRun) float64 { return float64(r.runNs) })
	return []value{
		{"sim_s_per_host_s", "s/s", perHostSecond(runs, runNs, simS), ""},
		{"requests_per_host_s", "1/s", perHostSecond(runs, runNs, func(r *fleetRun) float64 { return float64(r.res.Requests) }), ""},
		{"sim_j_per_request", "J", variantMean(runs, func(r *fleetRun) float64 { return r.res.JoulesPerRequest }), ""},
		{"sim_latency_ms_p99", "ms", variantMean(runs, func(r *fleetRun) float64 { return r.res.P99Ms }), ""},
		{"sim_power_w", "W", variantMean(runs, func(r *fleetRun) float64 { return r.res.EnergyJ / simS(r) }), ""},
		{"setup_s", "s", mean(variantHostNs(runs, func(r *fleetRun) float64 { return float64(r.setupNs) })) / 1e9, "predictor training + fleet.New"},
		{"heap_peak_mb", "MB", variantMean(runs, func(r *fleetRun) float64 { return float64(r.heap) / 1e6 }), ""},
		{"alloc_mb_per_sim_s", "MB/s", variantMean(runs, func(r *fleetRun) float64 { return float64(r.mem.allocBytes) / 1e6 / simS(r) }), ""},
	}
}

// usPerRequest is host µs of Run per admitted request.
func usPerRequest(r *fleetRun) float64 {
	return float64(r.runNs) / 1e3 / float64(r.res.Requests)
}

// fleetLayers distils the per-layer metrics from the traced runs and,
// for the first variants, their Workers=1 and double-length twins.
func fleetLayers(runs [][]*fleetRun, serial, long []*fleetRun, coldNewNs int64) []value {
	var train, newMs, usPerReq, inflight, gcCycles, gcPause []float64
	for _, r := range flatten(runs) {
		train = append(train, float64(r.setupNs-r.newNs)/1e6)
		newMs = append(newMs, float64(r.newNs)/1e6)
		usPerReq = append(usPerReq, usPerRequest(r))
		inflight = append(inflight, float64(r.res.InFlight))
		gcCycles = append(gcCycles, float64(r.mem.gcCycles))
		gcPause = append(gcPause, float64(r.mem.gcPauseNs)/1e6)
	}
	var speedup, late []float64
	for v, r := range serial {
		speedup = append(speedup, float64(r.runNs)/medianOf(runs[v], func(r *fleetRun) float64 { return float64(r.runNs) }))
		late = append(late, usPerRequest(long[v])/medianOf(runs[v], usPerRequest))
	}
	return []value{
		{"core.train_ms", "ms", median(train), "both platforms' predictors"},
		{"fleet.new_ms", "ms", median(newMs), "predictor memo warm"},
		{"fleet.new_cold_ms", "ms", float64(coldNewNs) / 1e6, "first fleet.New of the process"},
		{"fleet.host_us_per_request", "us", median(usPerReq), ""},
		{"fleet.late_cost_ratio", "ratio", median(late), "2x admission window over the standard one"},
		{"fleet.workers_speedup", "ratio", median(speedup), fmt.Sprintf("Run at Workers=1 over Workers=%d", fleetWorkers)},
		{"fleet.inflight_at_deadline", "count", mean(inflight), "per run"},
		{"go.gc_cycles", "count", mean(gcCycles), "per run"},
		{"go.gc_pause_ms", "ms", mean(gcPause), "per run"},
	}
}

// fleetExtraRuns is how many variants get a Workers=1 twin (and, when
// traced, a double-length twin) after the measured runs.
const fleetExtraRuns = 3

func fleetOutcome(seed uint64, budget time.Duration, traced bool, clock hostClock) (*outcome, error) {
	out := &outcome{}
	seeds := variantSeeds(seed)
	// The process's first fleet.New trains the memoised predictors.
	t0 := clock.now()
	if _, err := fleet.New(fleetConfig(seeds[0], fleetSimNs, fleetWorkers)); err != nil {
		return nil, fmt.Errorf("fleet set-up: %w", err)
	}
	coldNewNs := clock.now() - t0

	if traced {
		out.spans = &tracer{}
	}
	plain, tracedRuns, err := measure(seeds, budget, out.spans, func(seed uint64, tr *tracer, run int) (*fleetRun, error) {
		return runFleet(fleetConfig(seed, fleetSimNs, fleetWorkers), clock, tr, run, spanFleetRun)
	})
	if err != nil {
		return nil, err
	}
	out.endToEnd = fleetEndToEnd(plain)
	byVariant := plain
	if traced {
		byVariant = make([][]*fleetRun, len(plain))
		for v := range plain {
			byVariant[v] = append(append([]*fleetRun(nil), plain[v]...), tracedRuns[v]...)
		}
	}
	run := len(flatten(byVariant))
	// DESIGN.md §13: the worker count never changes any output, so a
	// Workers=1 twin must reproduce its variant's digest exactly.
	var serial, long []*fleetRun
	extra := 1
	if traced {
		extra = fleetExtraRuns
	}
	for v := 0; v < extra; v++ {
		r, err := runFleet(fleetConfig(seeds[v], fleetSimNs, 1), clock, out.spans, run, spanFleetRunW1)
		if err != nil {
			return nil, err
		}
		run++
		serial = append(serial, r)
		byVariant[v] = append(byVariant[v], r)
		if traced {
			r, err := runFleet(fleetConfig(seeds[v], 2*fleetSimNs, fleetWorkers), clock, out.spans, run, spanFleetRunLen)
			if err != nil {
				return nil, err
			}
			run++
			long = append(long, r)
		}
	}
	if traced {
		tracedSpeed := fleetEndToEnd(tracedRuns)[0].v
		out.layers = append(fleetLayers(tracedRuns, serial, long, coldNewNs),
			value{"trace_overhead_pct", "%", 100 * (out.endToEnd[0].v/tracedSpeed - 1), ""},
			value{"trace.residual_pct", "%", 100 * out.spans.residual(), ""})
	}
	out.refNs = quantileOf(flatten(byVariant), hostQuantile, func(r *fleetRun) float64 { return r.refNs })
	out.digest, out.violations = checkDigests(byVariant, func(r *fleetRun) string { return r.digest })
	for _, r := range append(flatten(byVariant), long...) {
		out.attempted += r.res.Requests
		out.failed += r.res.InFlight
		if len(r.violations) > 0 {
			// A run that fails a check has no trustworthy request.
			out.failed += r.res.Requests - r.res.InFlight
			out.violations = append(out.violations, r.violations...)
		}
	}
	if len(out.violations) > 0 && out.failed == 0 {
		// Only digests differed: every request of the workload is suspect.
		out.failed = out.attempted
	}
	out.endToEnd = append(out.endToEnd, value{"error_rate", "ratio", float64(out.failed) / float64(out.attempted), ""})
	return out, nil
}
