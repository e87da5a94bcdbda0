package exp

import (
	"smartbalance/internal/arch"
	"smartbalance/internal/stats"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// Figure4a regenerates Fig. 4(a): SmartBalance energy-efficiency gain
// over the vanilla Linux balancer on the 4-type HMP for the nine
// interactive microbenchmark configurations at each thread count.
// Paper headline: 50.02% average improvement.
func Figure4a(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	cfgs := workload.IMBConfigs()
	if opts.Quick {
		cfgs = cfgs[:3]
	}
	var workloads []string
	for _, cfg := range cfgs {
		workloads = append(workloads, "imb:"+workload.IMBName(cfg[0], cfg[1]))
	}
	tb := tablefmt.New("Figure 4(a): energy-efficiency gain vs vanilla Linux (IMB)",
		"IMB config", "threads", "vanilla IPS/W", "smartbalance IPS/W", "gain")
	bars := &tablefmt.Bars{Title: "Fig 4(a): EE gain over vanilla (bars)", Unit: "x", Baseline: 1}
	gains, err := gainGrid("F4a", arch.QuadHMP(), workloads, opts, tb, bars)
	if err != nil {
		return nil, err
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
	tb := tablefmt.New("Figure 4(b): energy-efficiency gain vs vanilla Linux (PARSEC + mixes)",
		"workload", "threads", "vanilla IPS/W", "smartbalance IPS/W", "gain")
	bars := &tablefmt.Bars{Title: "Fig 4(b): EE gain over vanilla (bars)", Unit: "x", Baseline: 1}
	gains, err := gainGrid("F4b", arch.QuadHMP(), figure4bWorkloads(opts.Quick), opts, tb, bars)
	if err != nil {
		return nil, err
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
