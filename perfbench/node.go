package main

import (
	"fmt"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/balancer"
	"smartbalance/internal/contention"
	"smartbalance/internal/core"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

// nodeWorkload is one single-kernel workload: a platform, the threads
// generated from the seed, the balancer, and the simulated length of
// one run. Every run is one kernel.Run call over the whole length:
// stepping Run epoch by epoch changes the simulated results today
// (README.md, finding 1).
type nodeWorkload struct {
	name       string
	platform   func() (*arch.Platform, error)
	specs      func(seed uint64) ([]workload.ThreadSpec, error)
	smart      bool // SmartBalance controller; otherwise the vanilla balancer
	contention bool // machine contention model on, coupled to the controller
	simNs      int64
}

// The node-contended thread mix: the A14 antagonist mix doubled — cache
// sensitive victims plus streaming (ant=1) and cache-resident (ant=2)
// aggressors.
const (
	contendedVictim    = "synth:phases=1,ins=80,ilp=3,mem=0.3,wsd=384"
	contendedStreaming = "synth:phases=1,ins=120,ilp=2,mem=0.4,wsd=2048,ant=1"
	contendedCacheRes  = "synth:phases=1,ins=120,ilp=2,mem=0.4,wsd=2048,ant=2"
)

func contendedSpecs(seed uint64) ([]workload.ThreadSpec, error) {
	var specs []workload.ThreadSpec
	for _, g := range []struct {
		spec string
		n    int
	}{{contendedVictim, 4}, {contendedStreaming, 2}, {contendedCacheRes, 2}} {
		s, err := workload.Synth(g.spec, g.n, seed)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s...)
	}
	return specs, nil
}

func nodeWorkloadByName(name string) (nodeWorkload, bool) {
	switch name {
	case "node-quad":
		return nodeWorkload{
			name:     name,
			platform: func() (*arch.Platform, error) { return arch.QuadHMP(), nil },
			specs:    func(seed uint64) ([]workload.ThreadSpec, error) { return workload.Mix("Mix1", 4, seed) },
			smart:    true,
			simNs:    30e9,
		}, true
	case "node-contended":
		return nodeWorkload{
			name:       name,
			platform:   func() (*arch.Platform, error) { return arch.HexaDualCluster(), nil },
			specs:      contendedSpecs,
			smart:      true,
			contention: true,
			simNs:      30e9,
		}, true
	case "node-scale":
		return nodeWorkload{
			name:     name,
			platform: func() (*arch.Platform, error) { return arch.ScalingHMP(256) },
			specs:    func(seed uint64) ([]workload.ThreadSpec, error) { return workload.Mix("Mix1", 1280, seed) },
			simNs:    1.2e9,
		}, true
	}
	return nodeWorkload{}, false
}

// nodeSystem is a constructed, spawned, not yet run node.
type nodeSystem struct {
	kern *kernel.Kernel
	ctrl *core.SmartBalance // nil under the vanilla balancer
	obs  *epochObserver
	bal  *timedBalancer // nil unless traced
	cont *contention.Model
}

// buildNode performs the set-up of one run — workload generation,
// predictor training, machine, balancer and kernel construction, and
// spawn — timing each step into t. A traced build (tr non-nil) also
// records each step as a span under root and wraps the balancer to time
// every Rebalance.
func buildNode(w nodeWorkload, seed uint64, clock hostClock, tr *tracer, root, run int, t *nodeTimes) (*nodeSystem, error) {
	step := func(name string, start int64) int64 {
		end := clock.now()
		tr.add(name, start, end, root, run)
		return end - start
	}
	t0 := clock.now()
	specs, err := w.specs(seed)
	if err != nil {
		return nil, err
	}
	plat, err := w.platform()
	if err != nil {
		return nil, err
	}
	t.build = step(spanBuild, t0)

	sys := &nodeSystem{}
	var bal kernel.Balancer = balancer.Vanilla{}
	if w.smart {
		t0 = clock.now()
		tc := core.DefaultTrainConfig()
		tc.Seed = seed
		pred, err := core.Train(plat.Types, tc)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Anneal.Seed = seed
		if sys.ctrl, err = core.New(pred, cfg); err != nil {
			return nil, err
		}
		bal = sys.ctrl
		t.train = step(spanTrain, t0)
	}

	t0 = clock.now()
	m, err := machine.NewWithOptions(plat, machine.Options{Contention: contention.Spec{Enabled: w.contention}})
	if err != nil {
		return nil, err
	}
	sys.cont = m.Contention()
	if sys.ctrl != nil && sys.cont != nil {
		sys.ctrl.SetContention(sys.cont)
	}
	step(spanMachineNew, t0)

	t0 = clock.now()
	kcfg := kernel.DefaultConfig()
	kcfg.Seed = seed
	epochs := int(w.simNs / kcfg.EpochNs)
	if tr != nil {
		sys.bal = newTimedBalancer(bal, clock, epochs)
		bal = sys.bal
	}
	if sys.kern, err = kernel.New(m, bal, kcfg); err != nil {
		return nil, err
	}
	sys.obs = newEpochObserver(clock, epochs, sys.cont)
	sys.kern.AddObserver(sys.obs.observe)
	step(spanKernelNew, t0)

	t0 = clock.now()
	for i := range specs {
		if _, err := sys.kern.Spawn(&specs[i]); err != nil {
			return nil, err
		}
	}
	t.spawn = step(spanSpawn, t0)
	return sys, nil
}

// nodeTimes holds the host time of one run's timed steps, in ns.
type nodeTimes struct {
	setup, build, train, spawn, run int64
}

// nodeRun is the outcome of one measured node run.
type nodeRun struct {
	nodeTimes
	refNs      float64 // calibration time just before set-up
	stats      *kernel.RunStats
	digest     string
	epochNs    []float64 // host time of each full epoch (consecutive TraceEpoch stamps)
	rebNs      []float64 // host time of every Rebalance call (traced runs)
	selfNs     []float64 // full epoch minus the Rebalance that opened it (traced runs)
	mem        memDelta
	heap       uint64
	obs        *epochObserver
	overhead   core.PhaseOverhead
	health     core.Health
	violations []string
}

// runNode performs one complete run: set-up, one kernel.Run over the
// workload's length, and the correctness checks. The iteration span
// covers set-up and run; the checks and heap reads after it are
// harness time.
func runNode(w nodeWorkload, seed uint64, clock hostClock, tr *tracer, run int) (*nodeRun, error) {
	r := &nodeRun{}
	base := liveHeap()
	r.refNs = referenceNs(clock)
	start := clock.now()
	root := tr.add(spanIteration, start, start, -1, run)
	sys, err := buildNode(w, seed, clock, tr, root, run, &r.nodeTimes)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	r.setup = clock.now() - start

	before := memMark()
	runStart := clock.now()
	err = sys.kern.Run(w.simNs)
	runEnd := clock.now()
	r.mem = memSince(before)
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	r.heap = heapGrowth(base)
	r.run = runEnd - runStart
	tr.setEnd(root, runEnd)
	runSpan := tr.add(spanKernelRun, runStart, runEnd, root, run)
	stamps := sys.obs.stamps
	for i := 0; i+1 < len(stamps); i++ {
		r.epochNs = append(r.epochNs, float64(stamps[i+1]-stamps[i]))
	}
	if sys.bal != nil {
		if err := tr.addEpochSpans(runSpan, runStart, runEnd, stamps, sys.bal.calls, run); err != nil {
			return nil, err
		}
		for i, c := range sys.bal.calls {
			r.rebNs = append(r.rebNs, float64(c[1]-c[0]))
			if i < len(r.epochNs) {
				r.selfNs = append(r.selfNs, r.epochNs[i]-float64(c[1]-c[0]))
			}
		}
	}
	r.obs = sys.obs
	if sys.ctrl != nil {
		r.overhead = sys.ctrl.Overhead()
		r.health = sys.ctrl.Health()
	}
	r.stats = sys.kern.Stats()
	r.violations = checkNode(w, sys.kern, r.stats)
	r.digest = digestOf(r.stats)
	return r, nil
}

// checkNode verifies one finished run: the kernel's own invariants, the
// full simulated span, and that every core was either busy or asleep
// for all of it.
func checkNode(w nodeWorkload, k *kernel.Kernel, st *kernel.RunStats) []string {
	var v []string
	if err := k.CheckInvariants(); err != nil {
		v = append(v, fmt.Sprintf("%s: %v", w.name, err))
	}
	if st.SpanNs != w.simNs {
		v = append(v, fmt.Sprintf("%s: span %d ns, want %d", w.name, st.SpanNs, w.simNs))
	}
	for _, c := range st.Cores {
		if c.BusyNs+c.SleepNs != st.SpanNs {
			v = append(v, fmt.Sprintf("%s: core %d busy %d + sleep %d ns != span %d ns",
				w.name, c.Core, c.BusyNs, c.SleepNs, st.SpanNs))
		}
	}
	if st.TotalInstructions() == 0 || st.TotalEnergyJ() <= 0 {
		v = append(v, fmt.Sprintf("%s: run retired no instructions or used no energy", w.name))
	}
	return v
}

// nodeEndToEnd distils the end-to-end metrics of a set of runs.
func nodeEndToEnd(w nodeWorkload, runs [][]*nodeRun) []value {
	var epochs []float64
	all := flatten(runs)
	for _, r := range all {
		epochs = append(epochs, r.epochNs...)
	}
	n := fmt.Sprintf("%d epochs over %d runs", len(epochs), len(all))
	simS := float64(w.simNs) / 1e9
	runNs := variantHostNs(runs, func(r *nodeRun) float64 { return float64(r.run) })
	return []value{
		{"sim_s_per_host_s", "s/s", perHostSecond(runs, runNs, func(*nodeRun) float64 { return simS }), ""},
		{"epoch_host_us_p50", "us", quantile(epochs, 0.5) / 1e3, n},
		{"epoch_host_us_p99", "us", quantile(epochs, 0.99) / 1e3, n},
		{"sim_ee_ips_per_w", "instr/J", variantMean(runs, func(r *nodeRun) float64 { return r.stats.EnergyEfficiency() }), ""},
		{"sim_power_w", "W", variantMean(runs, func(r *nodeRun) float64 { return r.stats.PowerW() }), ""},
		{"setup_s", "s", mean(variantHostNs(runs, func(r *nodeRun) float64 { return float64(r.setup) })) / 1e9, ""},
		{"heap_peak_mb", "MB", variantMean(runs, func(r *nodeRun) float64 { return float64(r.heap) / 1e6 }), ""},
		{"alloc_mb_per_sim_s", "MB/s", variantMean(runs, func(r *nodeRun) float64 { return float64(r.mem.allocBytes) / 1e6 / simS }), ""},
	}
}

// nodeLayers distils the per-layer metrics of a set of traced runs.
func nodeLayers(w nodeWorkload, runs []*nodeRun) []value {
	var reb, self, build, train, spawn, gcCycles, gcPause []float64
	var phases core.PhaseOverhead
	var skipped, slices, wakes, migrations, kernEpochs int
	var kernelNs float64
	var maxP, maxBW float64
	for _, r := range runs {
		reb = append(reb, r.rebNs...)
		self = append(self, r.selfNs...)
		build = append(build, float64(r.build)/1e6)
		train = append(train, float64(r.train)/1e6)
		spawn = append(spawn, float64(r.spawn)/1e6)
		gcCycles = append(gcCycles, float64(r.mem.gcCycles))
		gcPause = append(gcPause, float64(r.mem.gcPauseNs)/1e6)
		phases.Sense += r.overhead.Sense
		phases.Predict += r.overhead.Predict
		phases.Optimize += r.overhead.Optimize
		phases.Migrate += r.overhead.Migrate
		phases.Epochs += r.overhead.Epochs
		phases.Migrations += r.overhead.Migrations
		skipped += r.health.SkippedEpochs
		slices += r.obs.slices
		wakes += r.obs.wakes
		migrations += r.obs.migrations
		kernEpochs += r.stats.Epochs
		kernelNs += float64(r.run) - sum(r.rebNs)
		maxP = max(maxP, r.obs.maxPressure)
		maxBW = max(maxBW, r.obs.maxBWUtil)
	}
	perPhase := func(d time.Duration) float64 {
		if phases.Epochs == 0 {
			return 0
		}
		return float64(d) / 1e3 / float64(phases.Epochs)
	}
	perEpoch := func(n int) float64 { return float64(n) / float64(kernEpochs) }
	var coreP50, coreP99, vanillaP50, migrPerEpoch float64
	if w.smart {
		coreP50, coreP99 = quantile(reb, 0.5)/1e3, quantile(reb, 0.99)/1e3
		migrPerEpoch = float64(phases.Migrations) / float64(phases.Epochs)
	} else {
		vanillaP50 = quantile(reb, 0.5) / 1e3
	}
	nsPerSlice := 0.0
	if slices > 0 {
		nsPerSlice = kernelNs / float64(slices)
	}
	return []value{
		{"core.rebalance_us_p50", "us", coreP50, ""},
		{"core.rebalance_us_p99", "us", coreP99, ""},
		{"core.sense_us", "us", perPhase(phases.Sense), "per epoch"},
		{"core.predict_us", "us", perPhase(phases.Predict), "per epoch"},
		{"core.optimize_us", "us", perPhase(phases.Optimize), "per epoch"},
		{"core.migrate_us", "us", perPhase(phases.Migrate), "per epoch"},
		{"core.migrations_per_epoch", "count", migrPerEpoch, ""},
		{"core.skipped_epochs", "count", float64(skipped), ""},
		{"core.train_ms", "ms", median(train), ""},
		{"kernel.self_us_per_epoch", "us", median(self) / 1e3, "median epoch minus its Rebalance"},
		{"kernel.slices_per_epoch", "count", perEpoch(slices), ""},
		{"kernel.wakes_per_epoch", "count", perEpoch(wakes), ""},
		{"kernel.migrations_per_epoch", "count", perEpoch(migrations), ""},
		{"kernel.ns_per_slice", "ns", nsPerSlice, "Run minus Rebalance, per slice"},
		{"kernel.spawn_ms", "ms", median(spawn), ""},
		{"balancer.rebalance_us_p50", "us", vanillaP50, ""},
		{"workload.build_ms", "ms", median(build), ""},
		{"contention.max_pressure", "ratio", maxP, ""},
		{"contention.max_bw_util", "ratio", maxBW, ""},
		{"go.gc_cycles", "count", mean(gcCycles), "per run"},
		{"go.gc_pause_ms", "ms", mean(gcPause), "per run"},
	}
}

// nodeOutcome runs a node workload and assembles its outcome.
func nodeOutcome(w nodeWorkload, seed uint64, budget time.Duration, traced bool, clock hostClock) (*outcome, error) {
	out := &outcome{}
	if traced {
		out.spans = &tracer{}
	}
	plain, tracedRuns, err := measure(variantSeeds(seed), budget, out.spans,
		func(seed uint64, tr *tracer, run int) (*nodeRun, error) { return runNode(w, seed, clock, tr, run) })
	if err != nil {
		return nil, err
	}
	out.endToEnd = nodeEndToEnd(w, plain)
	if traced {
		tracedSpeed := nodeEndToEnd(w, tracedRuns)[0].v
		out.layers = append(nodeLayers(w, flatten(tracedRuns)),
			value{"trace_overhead_pct", "%", 100 * (out.endToEnd[0].v/tracedSpeed - 1), ""},
			value{"trace.residual_pct", "%", 100 * out.spans.residual(), ""})
	}
	byVariant := plain
	if traced {
		byVariant = make([][]*nodeRun, len(plain))
		for v := range plain {
			byVariant[v] = append(append([]*nodeRun(nil), plain[v]...), tracedRuns[v]...)
		}
	}
	// A run fails on a differing digest or a failed check.
	out.refNs = quantileOf(flatten(byVariant), hostQuantile, func(r *nodeRun) float64 { return r.refNs })
	out.digest, out.violations = checkDigests(byVariant, func(r *nodeRun) string { return r.digest })
	out.failed = len(out.violations)
	for _, r := range flatten(byVariant) {
		out.attempted++
		if len(r.violations) > 0 {
			out.failed++
			out.violations = append(out.violations, r.violations...)
		}
	}
	out.endToEnd = append(out.endToEnd, value{"error_rate", "ratio", float64(out.failed) / float64(out.attempted), ""})
	return out, nil
}
