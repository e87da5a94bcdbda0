package exp

import (
	"fmt"
	"strings"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/powermodel"
	"smartbalance/internal/scenario"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// TableCoreConfigs regenerates Table 2: the heterogeneous core
// configuration parameters, cross-checked against the calibrated power
// model (the "estimated by Gem5/McPAT" starred rows must be exactly the
// model anchors).
func TableCoreConfigs(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	types := arch.Table2Types()
	tb := tablefmt.New("Table 2: Heterogeneous Core Configuration Parameters",
		"Parameter", types[0].Name, types[1].Name, types[2].Name, types[3].Name)
	row := func(label string, f func(*arch.CoreType) string) {
		cells := []string{label}
		for i := range types {
			cells = append(cells, f(&types[i]))
		}
		tb.AddRow(cells...)
	}
	row("Issue width (x1)", func(c *arch.CoreType) string { return fmt.Sprintf("%d", c.IssueWidth) })
	row("LQ/SQ size (x2)", func(c *arch.CoreType) string { return fmt.Sprintf("%d/%d", c.LQSize, c.SQSize) })
	row("IQ size (x3)", func(c *arch.CoreType) string { return fmt.Sprintf("%d", c.IQSize) })
	row("ROB size (x4)", func(c *arch.CoreType) string { return fmt.Sprintf("%d", c.ROBSize) })
	row("Int/float regs (x5)", func(c *arch.CoreType) string { return fmt.Sprintf("%d", c.IntRegs) })
	row("L1$I size KB (x6)", func(c *arch.CoreType) string { return fmt.Sprintf("%d", c.L1IKB) })
	row("L1$D size KB (x7)", func(c *arch.CoreType) string { return fmt.Sprintf("%d", c.L1DKB) })
	row("Freq. (MHz)", func(c *arch.CoreType) string { return fmt.Sprintf("%.0f", c.FreqMHz) })
	row("Voltage (V)", func(c *arch.CoreType) string { return fmt.Sprintf("%.1f", c.VoltageV) })
	row("Peak throughput (IPC)", func(c *arch.CoreType) string { return fmt.Sprintf("%.2f", c.PeakIPC) })
	row("Peak power (W)", func(c *arch.CoreType) string { return fmt.Sprintf("%.3f", c.PeakPowerW) })
	row("Area (mm2)", func(c *arch.CoreType) string { return fmt.Sprintf("%.2f", c.AreaMM2) })

	// Calibration cross-check: the power model must hit the anchors.
	worst := 0.0
	refPhase := workload.Phase{
		Name: "ref", Instructions: 1e6, ILP: 2, MemShare: 0.30, BranchShare: 0.12,
		WorkingSetIKB: 8, WorkingSetDKB: 64, BranchEntropy: 0.3, MLP: 2,
	}
	for i := range types {
		pm, err := powermodel.NewCoreModel(&types[i])
		if err != nil {
			return nil, err
		}
		got := pm.BusyPower(types[i].PeakIPC, &refPhase)
		rel := abs(got-types[i].PeakPowerW) / types[i].PeakPowerW
		if rel > worst {
			worst = rel
		}
	}
	tb.AddNote("power-model calibration error at the Table 2 anchors: %.2e (relative)", worst)
	tb.AddNote("private L2 per core (not in Table 2; derived as 16x L1D): %d/%d/%d/%d KB",
		types[0].L2KB, types[1].L2KB, types[2].L2KB, types[3].L2KB)
	return &Result{
		ID:         "T2",
		Title:      "Heterogeneous core configuration parameters",
		Table:      tb,
		Headline:   map[string]float64{"calibration-rel-error": worst},
		PaperClaim: "Table 2 values estimated by Gem5+McPAT at 22nm",
	}, nil
}

// TableBenchmarkMixes regenerates Table 3: the PARSEC mixes.
func TableBenchmarkMixes(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tb := tablefmt.New("Table 3: Benchmarks and their Mixes", "Mix", "Benchmarks", "Threads per benchmark")
	tcs := make([]string, 0, len(opts.ThreadCounts))
	for _, tc := range opts.ThreadCounts {
		tcs = append(tcs, fmt.Sprintf("%d", tc))
	}
	for _, mix := range workload.MixNames() {
		benches, err := workload.MixContents(mix)
		if err != nil {
			return nil, err
		}
		tb.AddRow(mix, strings.Join(benches, " + "), strings.Join(tcs, ","))
	}
	return &Result{
		ID:         "T3",
		Title:      "PARSEC benchmark mixes",
		Table:      tb,
		Headline:   map[string]float64{"mixes": float64(len(workload.MixNames()))},
		PaperClaim: "six x264/bodytrack mixes (Table 3)",
	}, nil
}

// TablePredictorCoefficients regenerates Table 4: the trained predictor
// coefficient matrix Θ, one row per ordered pair of distinct core
// types, one column per feature.
func TablePredictorCoefficients(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	pred, err := scenario.Predictor(arch.Table2Types(), opts.Seed)
	if err != nil {
		return nil, err
	}
	headers := append([]string{"Predictor IPC"}, core.FeatureNames()...)
	tb := tablefmt.New("Table 4: Predictor coefficient matrix", headers...)
	types := arch.Table2Types()
	var worstMAPE float64
	for s := range types {
		for d := range types {
			if s == d {
				continue
			}
			m := pred.Model(arch.CoreTypeID(s), arch.CoreTypeID(d))
			cells := []string{fmt.Sprintf("%s->%s", types[s].Name, types[d].Name)}
			for _, c := range m.Coef {
				cells = append(cells, fmt.Sprintf("%.3f", c))
			}
			tb.AddRow(cells...)
			if m.MeanAbsPct > worstMAPE {
				worstMAPE = m.MeanAbsPct
			}
		}
	}
	tb.AddNote("training uses relative-error-weighted ridge least squares (λ = 1e-6); worst per-pair training MAPE %.1f%%", worstMAPE)
	return &Result{
		ID:         "T4",
		Title:      "Predictor coefficient matrix",
		Table:      tb,
		Headline:   map[string]float64{"rows": 12, "worst-pair-train-mape-pct": worstMAPE},
		PaperClaim: "12 coefficient rows over 10 features (Table 4)",
	}, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
