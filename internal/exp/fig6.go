package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/scenario"
	"smartbalance/internal/stats"
	"smartbalance/internal/sweep"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// Figure6 regenerates Fig. 6: the per-benchmark performance and power
// prediction error of the trained Θ/power models on held-out workload
// variants. Paper headline: 4.2% average performance error, 5% average
// power error.
func Figure6(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	pred, err := scenario.Predictor(arch.Table2Types(), opts.Seed)
	if err != nil {
		return nil, err
	}
	benches := workload.Benchmarks()
	if opts.Quick {
		benches = benches[:4]
	}
	// Held-out variants: jittered workers from a seed disjoint from the
	// training corpus seeds. Each benchmark's error evaluation is an
	// independent cell on the worker pool; rows aggregate in order.
	heldSeed := opts.Seed*0x9E37 + 0xC0FFEE
	type f6Cell struct {
		perf, power float64
	}
	res, err := sweep.Map(opts.Workers, len(benches), func(i int) (f6Cell, error) {
		name := benches[i]
		specs, err := workload.Benchmark(name, 2, heldSeed)
		if err != nil {
			return f6Cell{}, err
		}
		var phases []workload.Phase
		for j := range specs {
			phases = append(phases, specs[j].Phases...)
		}
		perf, power, err := core.PredictionError(pred, phases, core.DefaultTrainConfig().SensorSigma, opts.Seed+7)
		if err != nil {
			return f6Cell{}, fmt.Errorf("F6 %s: %w", name, err)
		}
		return f6Cell{perf: perf, power: power}, nil
	})
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New("Figure 6: average prediction error across PARSEC-like workloads",
		"benchmark", "perf error %", "power error %")
	var perfAll, powerAll []float64
	for i, name := range benches {
		perfAll = append(perfAll, res[i].perf)
		powerAll = append(powerAll, res[i].power)
		tb.AddRow(name, fmt.Sprintf("%.2f", res[i].perf), fmt.Sprintf("%.2f", res[i].power))
	}
	meanPerf, err := stats.Mean(perfAll)
	if err != nil {
		return nil, err
	}
	meanPower, err := stats.Mean(powerAll)
	if err != nil {
		return nil, err
	}
	tb.AddRow("AVERAGE", fmt.Sprintf("%.2f", meanPerf), fmt.Sprintf("%.2f", meanPower))
	tb.AddNote("paper reports 4.2%% average performance and 5%% power error")
	return &Result{
		ID:       "F6",
		Title:    "Prediction error across PARSEC-like workloads",
		Table:    tb,
		Headline: map[string]float64{"mean-perf-error-pct": meanPerf, "mean-power-error-pct": meanPower},
		PaperClaim: "runtime prediction of performance and power incurs an average " +
			"error of 4.2% and 5% respectively",
	}, nil
}
