package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
)

// quickOpts keeps test runtime low while still exercising every runner
// end to end.
func quickOpts() Options {
	return Options{
		Seed:         1,
		DurationNs:   400e6,
		ThreadCounts: []int{2},
		Quick:        true,
	}
}

func TestOptionsValidate(t *testing.T) {
	o := Options{DurationNs: 1, ThreadCounts: []int{1}}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	if o.Seed == 0 {
		t.Fatal("zero seed not defaulted")
	}
	bad := []Options{
		{DurationNs: 0, ThreadCounts: []int{1}},
		{DurationNs: 1},
		{DurationNs: 1, ThreadCounts: []int{0}},
	}
	for i, b := range bad {
		if err := b.validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "F4a", "F4b", "F5", "F6", "F7", "F8",
		"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13", "A14"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries", len(reg))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if RunnerFor(id) == nil {
			t.Fatalf("RunnerFor(%s) nil", id)
		}
	}
	if RunnerFor("F99") != nil {
		t.Fatal("unknown id resolved")
	}
}

func TestTableCoreConfigs(t *testing.T) {
	res, err := TableCoreConfigs(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "T2" || res.Table.NumRows() != 12 {
		t.Fatalf("T2: %d rows", res.Table.NumRows())
	}
	if res.Headline["calibration-rel-error"] > 1e-6 {
		t.Fatalf("power calibration off by %g", res.Headline["calibration-rel-error"])
	}
	out := res.Table.String()
	for _, frag := range []string{"Huge", "Small", "8.62", "0.91"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("T2 output missing %q:\n%s", frag, out)
		}
	}
}

func TestTableBenchmarkMixes(t *testing.T) {
	res, err := TableBenchmarkMixes(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 6 {
		t.Fatalf("T3 rows = %d", res.Table.NumRows())
	}
	if !strings.Contains(res.Table.String(), "x264H-crew + x264H-bow") {
		t.Fatal("Mix1 contents wrong")
	}
}

func TestTablePredictorCoefficients(t *testing.T) {
	res, err := TablePredictorCoefficients(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 12 {
		t.Fatalf("T4 rows = %d, want 12 ordered type pairs", res.Table.NumRows())
	}
	out := res.Table.String()
	for _, frag := range []string{"Huge->Big", "Small->Medium", "ipc_src", "const"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("T4 missing %q", frag)
		}
	}
}

func TestFigure4a(t *testing.T) {
	res, err := Figure4a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("F4a empty")
	}
	// Quick mode runs only the high-throughput IMB subset for 400ms,
	// where gains are smallest (full runs average ~1.9x); the shape
	// check is just "SmartBalance wins".
	gain := res.Headline["geomean-gain"]
	if gain < 1.05 {
		t.Fatalf("F4a geomean gain %.2fx; paper shape (>1x) lost", gain)
	}
}

func TestFigure4b(t *testing.T) {
	res, err := Figure4b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gain := res.Headline["geomean-gain"]
	if gain < 1.2 {
		t.Fatalf("F4b geomean gain %.2fx; paper shape (>1.2x) lost", gain)
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gain := res.Headline["geomean-gain-vs-gts"]
	if gain < 1.05 {
		t.Fatalf("F5 gain vs GTS %.2fx; paper shape (>1.05x) lost", gain)
	}
	if !strings.Contains(res.Table.String(), "1.00") {
		t.Fatal("GTS normalization column missing")
	}
}

func TestFigure6(t *testing.T) {
	res, err := Figure6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	perf := res.Headline["mean-perf-error-pct"]
	power := res.Headline["mean-power-error-pct"]
	if perf <= 0 || perf > 15 {
		t.Fatalf("F6 perf error %.2f%% outside (0,15]", perf)
	}
	if power <= 0 || power > 15 {
		t.Fatalf("F6 power error %.2f%% outside (0,15]", power)
	}
	if !strings.Contains(res.Table.String(), "AVERAGE") {
		t.Fatal("average row missing")
	}
}

func TestFigure7(t *testing.T) {
	res, costs, err := figure7(quickOpts(), core.RealClock())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 { // quick: first three scenarios
		t.Fatalf("F7 rows = %d", res.Table.NumRows())
	}
	scales := core.ScalabilityScenarios()[:3]
	for i, oh := range costs {
		if oh.Sense <= 0 || oh.Predict <= 0 || oh.Optimize <= 0 || oh.Epochs < f7MinTimed {
			t.Errorf("%+v: missing phase times: %+v", scales[i], oh)
		}
	}

	t.Run("quad", func(t *testing.T) {
		const quad = 1 // ScalabilityScenarios: 2, 4, 8, ... cores
		if scales[quad].Cores != 4 || scales[quad].Threads != 8 {
			t.Fatalf("scenario %d is %+v, want 4 cores / 8 threads", quad, scales[quad])
		}
		if costs[quad].Total() <= 0 {
			t.Fatalf("zero quad total: %+v", costs[quad])
		}
		if costs[quad].Migrate != 4*core.MigrationCostNs {
			t.Errorf("quad migrate* = %v, want modelled 4 x %v", costs[quad].Migrate, core.MigrationCostNs)
		}
		if res.Headline["quad-core-epoch-fraction"] <= 0 {
			t.Fatal("quad-core fraction missing")
		}
		// The paper: under 1% of the 60 ms epoch for 2-8 cores. The
		// fraction is real host time, so the budget depends on how fast
		// this machine runs the controller: under the race detector
		// (which slows instrumented code ~10x and shares the host with
		// sibling test binaries) only gross regressions are detectable.
		limit := 0.05
		if raceEnabled {
			limit = 0.5
		}
		if res.Headline["quad-core-epoch-fraction"] > limit {
			t.Fatalf("quad-core overhead %.2f%% of epoch (budget %.0f%%)",
				100*res.Headline["quad-core-epoch-fraction"], 100*limit)
		}
	})

	t.Run("scales_with_size", func(t *testing.T) {
		for i, oh := range costs {
			if want := time.Duration(scales[i].Threads/2) * core.MigrationCostNs; oh.Migrate != want {
				t.Errorf("%+v: migrate* = %v, want modelled %v", scales[i], oh.Migrate, want)
			}
		}
		// The Fig. 8(a) budget grows eightfold from 2 to 8 cores.
		if costs[2].Optimize <= costs[0].Optimize {
			t.Errorf("optimize did not scale: %v at 8 cores, %v at 2", costs[2].Optimize, costs[0].Optimize)
		}
	})

	t.Run("validation", func(t *testing.T) {
		pred, err := core.Train(arch.Table2Types(), core.DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range []core.ScalePoint{{Cores: 0, Threads: 4}, {Cores: 2, Threads: 0}} {
			if _, err := phaseCost(pred, sp, 1, core.RealClock()); err == nil {
				t.Errorf("invalid scale %+v accepted", sp)
			}
		}
	})

	// Each timed phase brackets its work with two clock reads, so under
	// a FakeClock every scale reads exactly one step per phase.
	t.Run("fake_clock", func(t *testing.T) {
		const step = 10 * time.Microsecond
		_, fake, err := figure7(quickOpts(), core.NewFakeClock(step))
		if err != nil {
			t.Fatal(err)
		}
		for i, oh := range fake {
			if oh.Sense != step || oh.Predict != step || oh.Optimize != step {
				t.Errorf("%+v under FakeClock(%v): %+v, want one step per phase", scales[i], step, oh)
			}
		}
	})
}

func TestFigure8(t *testing.T) {
	res, err := Figure8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("F8 rows = %d", res.Table.NumRows())
	}
	if res.Headline["worst-distance-pct"] > 10 {
		t.Fatalf("distance to optimal %.2f%% too large", res.Headline["worst-distance-pct"])
	}
}

func TestPlantedProblemOptimality(t *testing.T) {
	prob, planted := plantedProblem(5, 3, 9)
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	plantedScore, err := core.EvaluateAllocation(prob, planted)
	if err != nil {
		t.Fatal(err)
	}
	best, bfScore, err := core.BruteForceOptimal(prob)
	if err != nil {
		t.Fatal(err)
	}
	if bfScore > plantedScore+1e-9 {
		t.Fatalf("planted %g beaten by %v scoring %g", plantedScore, best, bfScore)
	}
}

func TestWriteReport(t *testing.T) {
	opts := quickOpts()
	t3, err := TableBenchmarkMixes(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteReport(&sb, []*Result{t3, nil}, opts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"# SmartBalance reproduction report",
		"## T3 — PARSEC benchmark mixes",
		"**Paper:**",
		"**Measured:** mixes = 6",
		"Mix6",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
}

func TestTableRelatedWork(t *testing.T) {
	res, err := TableRelatedWork(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 7 {
		t.Fatalf("T1 rows = %d", res.Table.NumRows())
	}
	if res.Headline["structural-checks"] != 5 {
		t.Fatalf("only %.0f/5 structural checks hold", res.Headline["structural-checks"])
	}
	out := res.Table.String()
	for _, frag := range []string{"SmartBalance", "ARM GTS 2013", "Linaro IKS 2013", "core.SmartBalance"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("T1 missing %q", frag)
		}
	}
}

func TestFigureBarsPopulated(t *testing.T) {
	res, err := Figure5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Bars == nil || !res.Bars.Valid() {
		t.Fatal("F5 bar chart missing")
	}
	if len(res.Bars.Labels) != res.Table.NumRows() {
		t.Fatalf("bars %d entries vs table %d rows", len(res.Bars.Labels), res.Table.NumRows())
	}
	if res.Bars.Baseline != 1 {
		t.Fatal("F5 baseline should be GTS = 1.0")
	}
}

func TestReplicate(t *testing.T) {
	res, err := Replicate("T2", quickOpts(), []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "T2-replicated" {
		t.Fatalf("ID = %q", res.ID)
	}
	// T2's calibration error is 0 for every seed: mean 0, std 0.
	if res.Headline["calibration-rel-error-mean"] != 0 || res.Headline["calibration-rel-error-std"] != 0 {
		t.Fatalf("replicated T2 headlines: %v", res.Headline)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("no aggregated rows")
	}
	if _, err := Replicate("nope", quickOpts(), []uint64{1, 2}); err == nil {
		t.Fatal("unknown artefact accepted")
	}
	if _, err := Replicate("T2", quickOpts(), []uint64{1}); err == nil {
		t.Fatal("single seed accepted")
	}
}

// renderResult flattens a Result's canonical text (table plus bars) so
// equivalence tests can byte-compare two runs.
func renderResult(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := res.Table.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestReplicateParallelMatchesSerial is the satellite contract for the
// sweep-engine rewiring: running the per-seed replication on one worker
// or several produces byte-identical tables and identical headlines.
// F6 is the artefact BenchmarkReplicateParallel times.
func TestReplicateParallelMatchesSerial(t *testing.T) {
	serialOpts := quickOpts()
	serialOpts.Workers = 1
	parallelOpts := quickOpts()
	parallelOpts.Workers = 4
	seeds := []uint64{1, 2, 3}
	for _, id := range []string{"F4a", "F6"} {
		serial, err := Replicate(id, serialOpts, seeds)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Replicate(id, parallelOpts, seeds)
		if err != nil {
			t.Fatal(err)
		}
		st, pt := renderResult(t, serial), renderResult(t, parallel)
		if st != pt {
			t.Fatalf("%s: parallel replication table differs from serial:\n--- serial\n%s\n--- parallel\n%s", id, st, pt)
		}
		if len(serial.Headline) == 0 {
			t.Fatalf("%s: no headlines to compare", id)
		}
		for k, v := range serial.Headline {
			if pv, ok := parallel.Headline[k]; !ok || pv != v {
				t.Fatalf("%s: headline %q: serial %v, parallel %v (ok=%v)", id, k, v, pv, ok)
			}
		}
	}
}

// TestFiguresParallelMatchSerial asserts every runner that fans its
// cells out on the worker pool is worker-count invariant.
func TestFiguresParallelMatchSerial(t *testing.T) {
	for _, id := range []string{"F4a", "F4b", "F5", "F6", "F8", "A7"} {
		run := RunnerFor(id)
		serialOpts := quickOpts()
		serialOpts.Workers = 1
		parallelOpts := quickOpts()
		parallelOpts.Workers = 4
		serial, err := run(serialOpts)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		parallel, err := run(parallelOpts)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if st, pt := renderResult(t, serial), renderResult(t, parallel); st != pt {
			t.Errorf("%s: parallel table differs from serial", id)
		}
	}
}

func TestReplicateStability(t *testing.T) {
	// The F5 gain must be stable across seeds: std well below the mean
	// effect size (otherwise the headline comparisons are seed noise).
	res, err := Replicate("F5", quickOpts(), []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	mean := res.Headline["geomean-gain-vs-gts-mean"]
	std := res.Headline["geomean-gain-vs-gts-std"]
	if mean <= 1 {
		t.Fatalf("replicated F5 gain mean %.3f", mean)
	}
	if std > 0.2*(mean-1) {
		t.Fatalf("F5 gain unstable across seeds: mean %.3f, std %.3f", mean, std)
	}
}
