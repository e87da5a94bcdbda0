package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/machine"
	"smartbalance/internal/scenario"
	"smartbalance/internal/stats"
	"smartbalance/internal/sweep"
	"smartbalance/internal/tablefmt"
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
		wl := workloads[i]
		var ee [3]float64
		for j, name := range []string{"gts", "iks", "smartbalance"} {
			specs, err := scenario.Workload(wl, threads, opts.Seed)
			if err != nil {
				return f5Cell{}, err
			}
			st, err := runNamed(plat, name, specs, opts.DurationNs, seededConfig(opts.Seed), machine.Options{}, false)
			if err != nil {
				return f5Cell{}, fmt.Errorf("F5 %s %s: %w", name, wl, err)
			}
			ee[j] = st.EnergyEfficiency()
		}
		if ee[0] <= 0 {
			return f5Cell{}, fmt.Errorf("F5 %s: GTS achieved zero efficiency", wl)
		}
		return f5Cell{iksNorm: ee[1] / ee[0], gain: ee[2] / ee[0]}, nil
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
