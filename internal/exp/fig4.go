package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/balancer"
	"smartbalance/internal/kernel"
	"smartbalance/internal/scenario"
	"smartbalance/internal/stats"
	"smartbalance/internal/sweep"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// eeCell is one (workload, thread-count) cell of a Fig. 4-style gain
// sweep, computed on the sweep engine's worker pool.
type eeCell struct {
	gain, baseEE, testEE float64
}

// Figure4a regenerates Fig. 4(a): SmartBalance energy-efficiency gain
// over the vanilla Linux balancer on the 4-type HMP for the nine
// interactive microbenchmark configurations at each thread count.
// Paper headline: 50.02% average improvement.
func Figure4a(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	smart, err := trainedSmartBalanceFactory(arch.Table2Types(), opts.Seed)
	if err != nil {
		return nil, err
	}
	vanilla := func(*arch.Platform) (kernel.Balancer, error) { return balancer.Vanilla{}, nil }

	cfgs := workload.IMBConfigs()
	if opts.Quick {
		cfgs = cfgs[:3]
	}
	// Expand the (config, thread-count) cells in canonical order, fan
	// the independent simulations out on the worker pool, then build
	// the table serially in the same order — byte-identical output for
	// any worker count.
	type f4aCell struct {
		tl, il workload.Level
		name   string
		tc     int
	}
	var cells []f4aCell
	for _, cfg := range cfgs {
		for _, tc := range opts.ThreadCounts {
			cells = append(cells, f4aCell{tl: cfg[0], il: cfg[1], name: workload.IMBName(cfg[0], cfg[1]), tc: tc})
		}
	}
	res, err := sweep.Map(opts.Workers, len(cells), func(i int) (eeCell, error) {
		c := cells[i]
		mk := func() ([]workload.ThreadSpec, error) {
			return workload.IMB(c.tl, c.il, c.tc, opts.Seed)
		}
		gain, baseEE, testEE, err := eeGain(plat, vanilla, smart, mk, opts.DurationNs, opts.Seed)
		if err != nil {
			return eeCell{}, fmt.Errorf("F4a %s/%d: %w", c.name, c.tc, err)
		}
		return eeCell{gain: gain, baseEE: baseEE, testEE: testEE}, nil
	})
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New("Figure 4(a): energy-efficiency gain vs vanilla Linux (IMB)",
		"IMB config", "threads", "vanilla IPS/W", "smartbalance IPS/W", "gain")
	bars := &tablefmt.Bars{Title: "Fig 4(a): EE gain over vanilla (bars)", Unit: "x", Baseline: 1}
	var gains []float64
	for i, c := range cells {
		gains = append(gains, res[i].gain)
		tb.AddRow(c.name, fmt.Sprintf("%d", c.tc),
			tablefmt.FormatFloat(res[i].baseEE), tablefmt.FormatFloat(res[i].testEE),
			fmt.Sprintf("%.2fx", res[i].gain))
		bars.Labels = append(bars.Labels, fmt.Sprintf("%s/%d", c.name, c.tc))
		bars.Values = append(bars.Values, res[i].gain)
	}
	mean, err := stats.GeoMean(gains)
	if err != nil {
		return nil, err
	}
	minG, _ := stats.Min(gains)
	tb.AddNote("geometric-mean gain %.2fx (paper: ~1.50x average); minimum %.2fx", mean, minG)
	return &Result{
		ID:       "F4a",
		Bars:     bars,
		Title:    "Energy-efficiency gain vs vanilla Linux, interactive microbenchmarks",
		Table:    tb,
		Headline: map[string]float64{"geomean-gain": mean, "min-gain": minG},
		PaperClaim: "SmartBalance performs 50.02% better than vanilla on average " +
			"with the interactive benchmarks",
	}, nil
}

// figure4bWorkloads returns the Fig. 4(b) workload list: PARSEC
// benchmarks plus the Table 3 mixes.
func figure4bWorkloads(quick bool) []string {
	benches := []string{
		"blackscholes", "bodytrack", "canneal", "streamcluster", "swaptions",
		"x264H-crew", "x264L-bow",
	}
	if quick {
		return []string{"swaptions", "canneal", "Mix1"}
	}
	return append(benches, workload.MixNames()...)
}

// Figure4b regenerates Fig. 4(b): SmartBalance vs vanilla on PARSEC
// benchmarks and their mixes. Paper headline: 52% average improvement,
// over 50% across all benchmarks.
func Figure4b(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	smart, err := trainedSmartBalanceFactory(arch.Table2Types(), opts.Seed)
	if err != nil {
		return nil, err
	}
	vanilla := func(*arch.Platform) (kernel.Balancer, error) { return balancer.Vanilla{}, nil }

	// Same fan-out shape as Figure4a: canonical cell expansion, pooled
	// simulation, in-order aggregation.
	type f4bCell struct {
		name string
		tc   int
	}
	var cells []f4bCell
	for _, name := range figure4bWorkloads(opts.Quick) {
		for _, tc := range opts.ThreadCounts {
			cells = append(cells, f4bCell{name: name, tc: tc})
		}
	}
	res, err := sweep.Map(opts.Workers, len(cells), func(i int) (eeCell, error) {
		c := cells[i]
		mk := func() ([]workload.ThreadSpec, error) { return scenario.Workload(c.name, c.tc, opts.Seed) }
		gain, baseEE, testEE, err := eeGain(plat, vanilla, smart, mk, opts.DurationNs, opts.Seed)
		if err != nil {
			return eeCell{}, fmt.Errorf("F4b %s/%d: %w", c.name, c.tc, err)
		}
		return eeCell{gain: gain, baseEE: baseEE, testEE: testEE}, nil
	})
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New("Figure 4(b): energy-efficiency gain vs vanilla Linux (PARSEC + mixes)",
		"workload", "threads", "vanilla IPS/W", "smartbalance IPS/W", "gain")
	bars := &tablefmt.Bars{Title: "Fig 4(b): EE gain over vanilla (bars)", Unit: "x", Baseline: 1}
	var gains []float64
	for i, c := range cells {
		gains = append(gains, res[i].gain)
		tb.AddRow(c.name, fmt.Sprintf("%d", c.tc),
			tablefmt.FormatFloat(res[i].baseEE), tablefmt.FormatFloat(res[i].testEE),
			fmt.Sprintf("%.2fx", res[i].gain))
		bars.Labels = append(bars.Labels, fmt.Sprintf("%s/%d", c.name, c.tc))
		bars.Values = append(bars.Values, res[i].gain)
	}
	mean, err := stats.GeoMean(gains)
	if err != nil {
		return nil, err
	}
	minG, _ := stats.Min(gains)
	tb.AddNote("geometric-mean gain %.2fx (paper: ~1.52x average); minimum %.2fx", mean, minG)
	return &Result{
		ID:       "F4b",
		Bars:     bars,
		Title:    "Energy-efficiency gain vs vanilla Linux, PARSEC and mixes",
		Table:    tb,
		Headline: map[string]float64{"geomean-gain": mean, "min-gain": minG},
		PaperClaim: "52% better than vanilla with PARSEC benchmarks and mixes; " +
			"over 50% across all benchmarks",
	}, nil
}
