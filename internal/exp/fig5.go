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

// Figure5 regenerates Fig. 5: normalized energy efficiency of
// SmartBalance against the state-of-the-art ARM GTS policy (and the
// Linaro IKS baseline) on the octa-core big.LITTLE platform. Paper
// headline: GTS is limited by ~20% relative to SmartBalance.
func Figure5(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.OctaBigLittle()
	smart, err := trainedSmartBalanceFactory(arch.BigLittleTypes(), opts.Seed)
	if err != nil {
		return nil, err
	}
	gts := func(p *arch.Platform) (kernel.Balancer, error) { return balancer.NewGTS(p) }
	iks := func(p *arch.Platform) (kernel.Balancer, error) { return balancer.NewIKS(p) }

	workloads := []string{"blackscholes", "bodytrack", "canneal", "swaptions", "x264H-crew", "Mix1", "Mix5", "Mix6"}
	if opts.Quick {
		workloads = []string{"swaptions", "Mix5"}
	}
	threads := 4
	if opts.Quick {
		threads = 2
	}
	// Each workload's three runs (GTS, IKS, SmartBalance) form one
	// independent cell; cells fan out on the worker pool and aggregate
	// in workload order.
	type f5Cell struct {
		iksNorm, gain float64
	}
	res, err := sweep.Map(opts.Workers, len(workloads), func(i int) (f5Cell, error) {
		name := workloads[i]
		mk := func() ([]workload.ThreadSpec, error) { return scenario.Workload(name, threads, opts.Seed) }
		// GTS baseline run.
		specs, err := mk()
		if err != nil {
			return f5Cell{}, err
		}
		gtsStats, err := runScenario(plat, gts, specs, opts.DurationNs, opts.Seed)
		if err != nil {
			return f5Cell{}, fmt.Errorf("F5 gts %s: %w", name, err)
		}
		// IKS run.
		specs, err = mk()
		if err != nil {
			return f5Cell{}, err
		}
		iksStats, err := runScenario(plat, iks, specs, opts.DurationNs, opts.Seed)
		if err != nil {
			return f5Cell{}, fmt.Errorf("F5 iks %s: %w", name, err)
		}
		// SmartBalance run.
		specs, err = mk()
		if err != nil {
			return f5Cell{}, err
		}
		smartStats, err := runScenario(plat, smart, specs, opts.DurationNs, opts.Seed)
		if err != nil {
			return f5Cell{}, fmt.Errorf("F5 smart %s: %w", name, err)
		}
		g := gtsStats.EnergyEfficiency()
		if g <= 0 {
			return f5Cell{}, fmt.Errorf("F5 %s: GTS achieved zero efficiency", name)
		}
		return f5Cell{
			iksNorm: iksStats.EnergyEfficiency() / g,
			gain:    smartStats.EnergyEfficiency() / g,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New("Figure 5: normalized energy efficiency vs ARM GTS (octa-core big.LITTLE)",
		"workload", "GTS (norm)", "IKS (norm)", "SmartBalance (norm)", "gain vs GTS")
	bars := &tablefmt.Bars{Title: "Fig 5: normalized EE vs GTS (bars; GTS = 1.0)", Unit: "", Baseline: 1}
	var gains []float64
	for i, name := range workloads {
		gains = append(gains, res[i].gain)
		tb.AddRow(name, "1.00",
			fmt.Sprintf("%.2f", res[i].iksNorm),
			fmt.Sprintf("%.2f", res[i].gain),
			fmt.Sprintf("%.2fx", res[i].gain))
		bars.Labels = append(bars.Labels, name)
		bars.Values = append(bars.Values, res[i].gain)
	}
	mean, err := stats.GeoMean(gains)
	if err != nil {
		return nil, err
	}
	minG, _ := stats.Min(gains)
	tb.AddNote("geometric-mean gain over GTS %.2fx (paper: ~1.20x)", mean)
	return &Result{
		ID:       "F5",
		Bars:     bars,
		Title:    "Normalized energy efficiency vs ARM GTS on big.LITTLE",
		Table:    tb,
		Headline: map[string]float64{"geomean-gain-vs-gts": mean, "min-gain-vs-gts": minG},
		PaperClaim: "GTS falls short of SmartBalance by as much as ~20% " +
			"(over 20% improvement w.r.t. GTS)",
	}, nil
}
