package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/machine"
	"smartbalance/internal/rng"
	"smartbalance/internal/scenario"
	"smartbalance/internal/stats"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// Ablation studies for the design decisions DESIGN.md §5 calls out.
// These are not paper artefacts; they quantify what each SmartBalance
// ingredient buys. IDs A1..A5 extend the smartbench registry.

// ablationWorkloads is the mixed bag every ablation runs on.
func ablationWorkloads(quick bool) []string {
	if quick {
		return []string{"Mix5"}
	}
	return []string{"canneal", "swaptions", "Mix1", "Mix5", "Mix6"}
}

// AblationPredictionVsOracle (A1) compares prediction-driven
// SmartBalance against the oracle-matrix balancer — what the ~10%
// prediction error actually costs in achieved energy efficiency.
func AblationPredictionVsOracle(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	cfg := seededConfig(opts.Seed)
	ocfg := core.DefaultConfig()
	ocfg.Anneal.Seed = opts.Seed
	tb := tablefmt.New("Ablation A1: prediction-driven vs oracle matrices",
		"workload", "threads", "oracle IPS/W", "predicted IPS/W", "retained")
	var retained []float64
	for _, name := range ablationWorkloads(opts.Quick) {
		for _, tc := range opts.ThreadCounts {
			oracle, err := core.NewOracle(ocfg)
			if err != nil {
				return nil, err
			}
			specs, err := scenario.Workload(name, tc, opts.Seed)
			if err != nil {
				return nil, err
			}
			ost, err := scenario.Run(plat, oracle, specs, opts.DurationNs, cfg, machine.Options{}, false, nil)
			if err != nil {
				return nil, fmt.Errorf("A1 %s/%d oracle: %w", name, tc, err)
			}
			if specs, err = scenario.Workload(name, tc, opts.Seed); err != nil {
				return nil, err
			}
			sst, err := runNamed(plat, "smartbalance", specs, opts.DurationNs, cfg, machine.Options{}, false)
			if err != nil {
				return nil, fmt.Errorf("A1 %s/%d smartbalance: %w", name, tc, err)
			}
			oracleEE, smartEE := ost.EnergyEfficiency(), sst.EnergyEfficiency()
			if oracleEE <= 0 {
				return nil, fmt.Errorf("A1 %s/%d: oracle achieved zero energy efficiency", name, tc)
			}
			ratio := smartEE / oracleEE
			retained = append(retained, ratio)
			tb.AddRow(name, fmt.Sprintf("%d", tc),
				tablefmt.FormatFloat(oracleEE), tablefmt.FormatFloat(smartEE),
				fmt.Sprintf("%.1f%%", 100*ratio))
		}
	}
	mean, err := stats.GeoMean(retained)
	if err != nil {
		return nil, err
	}
	tb.AddNote("retained = predicted-matrix EE / oracle-matrix EE; geomean %.1f%%", 100*mean)
	return &Result{
		ID:       "A1",
		Title:    "Prediction vs oracle matrices",
		Table:    tb,
		Headline: map[string]float64{"geomean-retained": mean},
		PaperClaim: "implicit in Sec. 4.2.2: prediction avoids sampling overhead " +
			"without giving up placement quality",
	}, nil
}

// AblationObjectiveMode (A2) compares the default global-ratio
// objective against the literal Eq. (11) per-core ratio sum — the
// deviation DESIGN.md §4 documents.
func AblationObjectiveMode(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := rng.New(opts.Seed)
	tb := tablefmt.New("Ablation A2: global-ratio vs literal Eq.(11) objective",
		"threads", "cores", "global-ratio EE (model)", "per-core-sum EE (model)", "global/sum")
	var ratios []float64
	trials := 8
	if opts.Quick {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		m := 4 + r.Intn(8)
		n := 4
		prob := randomAblationProblem(r, m, n)
		// Optimise under each mode, then score both results under the
		// *measured* quantity (overall IPS/W = global ratio).
		score := func(mode core.ObjectiveMode) (float64, error) {
			p := *prob
			p.Mode = mode
			cfg := core.DefaultAnnealConfig()
			cfg.MaxIter = 1024
			cfg.Seed = opts.Seed + uint64(trial)
			res, err := core.Anneal(&p, make(core.Allocation, m), cfg)
			if err != nil {
				return 0, err
			}
			// Evaluate the chosen allocation under the global metric.
			pEval := *prob
			pEval.Mode = core.GlobalRatio
			return core.EvaluateAllocation(&pEval, res.Allocation)
		}
		g, err := score(core.GlobalRatio)
		if err != nil {
			return nil, err
		}
		s, err := score(core.PerCoreRatioSum)
		if err != nil {
			return nil, err
		}
		if s <= 0 {
			continue
		}
		ratios = append(ratios, g/s)
		tb.AddRow(fmt.Sprintf("%d", m), fmt.Sprintf("%d", n),
			tablefmt.FormatFloat(g), tablefmt.FormatFloat(s), fmt.Sprintf("%.2fx", g/s))
	}
	mean, err := stats.GeoMean(ratios)
	if err != nil {
		return nil, err
	}
	tb.AddNote("allocations optimised under each mode, both scored as overall IPS/W; geomean advantage %.2fx", mean)
	return &Result{
		ID:         "A2",
		Title:      "Objective mode ablation",
		Table:      tb,
		Headline:   map[string]float64{"geomean-global-advantage": mean},
		PaperClaim: "DESIGN.md §4: the literal per-core ratio sum cannot reward power-gating",
	}, nil
}

// AblationFixedPointSA (A3) compares Algorithm 1's fixed-point
// rand/e^x acceptance path against a float implementation, in both
// solution quality and optimiser speed.
func AblationFixedPointSA(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := rng.New(opts.Seed ^ 0xF1DE)
	trials := 10
	if opts.Quick {
		trials = 3
	}
	tb := tablefmt.New("Ablation A3: fixed-point vs floating-point Metropolis rule",
		"trial", "fixed-point J", "float J", "fixed/float")
	var quality []float64
	for trial := 0; trial < trials; trial++ {
		prob := randomAblationProblem(r, 10, 4)
		cfg := core.DefaultAnnealConfig()
		cfg.MaxIter = 1024
		cfg.Seed = opts.Seed + uint64(trial)
		fixed, err := core.Anneal(prob, make(core.Allocation, 10), cfg)
		if err != nil {
			return nil, err
		}
		cfg.UseFloat = true
		fl, err := core.Anneal(prob, make(core.Allocation, 10), cfg)
		if err != nil {
			return nil, err
		}
		if fl.Objective <= 0 {
			continue
		}
		q := fixed.Objective / fl.Objective
		quality = append(quality, q)
		tb.AddRow(fmt.Sprintf("%d", trial),
			tablefmt.FormatFloat(fixed.Objective), tablefmt.FormatFloat(fl.Objective),
			fmt.Sprintf("%.3f", q))
	}
	mean, err := stats.GeoMean(quality)
	if err != nil {
		return nil, err
	}
	tb.AddNote("paper: fixed-point rand/e^x trades precision 'without significantly compromising the quality'")
	return &Result{
		ID:         "A3",
		Title:      "Fixed-point vs float simulated annealing",
		Table:      tb,
		Headline:   map[string]float64{"geomean-quality-ratio": mean},
		PaperClaim: "custom fixed-point rand and e^x ... without significantly compromising quality",
	}, nil
}

// AblationEpochLength (A4) sweeps the SmartBalance epoch length — how
// many CFS periods each sense-predict-balance cycle covers.
func AblationEpochLength(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	epochs := []int64{15e6, 30e6, 60e6, 120e6, 240e6}
	if opts.Quick {
		epochs = []int64{30e6, 60e6, 120e6}
	}
	tb := tablefmt.New("Ablation A4: epoch-length sweep (Mix5, 4 threads)",
		"epoch (ms)", "IPS/W", "migrations", "relative to 60ms")
	var base float64
	baseSet := false
	type row struct {
		epoch int64
		ee    float64
		mig   int
	}
	var rows []row
	for _, ep := range epochs {
		specs, err := workload.Mix("Mix5", 4, opts.Seed)
		if err != nil {
			return nil, err
		}
		cfg := seededConfig(opts.Seed)
		cfg.EpochNs = ep
		st, err := runNamed(plat, "smartbalance", specs, opts.DurationNs, cfg, machine.Options{}, false)
		if err != nil {
			return nil, fmt.Errorf("A4 epoch %dms: %w", ep/1e6, err)
		}
		ee := st.EnergyEfficiency()
		rows = append(rows, row{ep, ee, st.Migrations})
		if ep == 60e6 {
			base = ee
			baseSet = true
		}
	}
	if !baseSet {
		base = rows[len(rows)/2].ee
	}
	var best float64
	for _, rr := range rows {
		rel := rr.ee / base
		if rel > best {
			best = rel
		}
		tb.AddRow(fmt.Sprintf("%d", rr.epoch/1e6), tablefmt.FormatFloat(rr.ee),
			fmt.Sprintf("%d", rr.mig), fmt.Sprintf("%.3f", rel))
	}
	tb.AddNote("the paper fixes the epoch at 60ms; shorter epochs react faster but migrate more")
	return &Result{
		ID:         "A4",
		Title:      "Epoch-length sweep",
		Table:      tb,
		Headline:   map[string]float64{"best-relative-ee": best},
		PaperClaim: "epoch covers multiple CFS periods (60ms in Sec. 6.3)",
	}, nil
}

// AblationMigrationPenalty (A5) sweeps the cold-cache migration
// penalty to show the balancer's gains survive realistic migration
// costs.
func AblationMigrationPenalty(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	penalties := []int64{0, 50e3, 200e3, 1e6, 5e6}
	if opts.Quick {
		penalties = []int64{0, 1e6}
	}
	tb := tablefmt.New("Ablation A5: migration-penalty sweep (Mix1, 4 threads)",
		"penalty (us)", "IPS/W", "migrations", "relative to zero-cost")
	var base float64
	var minRel float64 = 1
	for i, pen := range penalties {
		specs, err := workload.Mix("Mix1", 4, opts.Seed)
		if err != nil {
			return nil, err
		}
		cfg := seededConfig(opts.Seed)
		cfg.MigrationPenaltyNs = pen
		st, err := runNamed(plat, "smartbalance", specs, opts.DurationNs, cfg, machine.Options{}, false)
		if err != nil {
			return nil, fmt.Errorf("A5 penalty %dus: %w", pen/1000, err)
		}
		ee := st.EnergyEfficiency()
		if i == 0 {
			base = ee
		}
		rel := ee / base
		if rel < minRel {
			minRel = rel
		}
		tb.AddRow(fmt.Sprintf("%d", pen/1000), tablefmt.FormatFloat(ee),
			fmt.Sprintf("%d", st.Migrations), fmt.Sprintf("%.3f", rel))
	}
	tb.AddNote("epoch-granular migration keeps the balancer robust to multi-ms cold-cache costs")
	return &Result{
		ID:         "A5",
		Title:      "Migration-penalty sweep",
		Table:      tb,
		Headline:   map[string]float64{"worst-relative-ee": minRel},
		PaperClaim: "migration overhead assumed at 50% of threads per epoch (Fig. 7)",
	}, nil
}

// randomAblationProblem builds a heterogeneity-shaped random problem:
// per-thread IPS scales with a per-core capability factor plus thread
// affinity noise; power scales super-linearly with capability.
func randomAblationProblem(r *rng.Rand, m, n int) *core.Problem {
	capability := make([]float64, n)
	for j := range capability {
		capability[j] = 0.5 + 3.5*float64(j)/float64(n-1+1)
	}
	p := &core.Problem{
		IPS:       make([][]float64, m),
		Power:     make([][]float64, m),
		Util:      make([]float64, m),
		IdlePower: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.IdlePower[j] = 0.01 * capability[j]
	}
	for i := 0; i < m; i++ {
		p.IPS[i] = make([]float64, n)
		p.Power[i] = make([]float64, n)
		scalability := r.Float64() // how much the thread benefits from big cores
		for j := 0; j < n; j++ {
			speed := 1 + scalability*(capability[j]-1)
			p.IPS[i][j] = speed * (0.3 + r.Float64()) * 1e9
			p.Power[i][j] = 0.05 + 0.4*capability[j]*capability[j]*(0.8+0.4*r.Float64())
		}
		p.Util[i] = 0.2 + 0.8*r.Float64()
	}
	return p
}
