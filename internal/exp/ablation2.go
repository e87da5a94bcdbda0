package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/perfmodel"
	"smartbalance/internal/powermodel"
	"smartbalance/internal/regress"
	"smartbalance/internal/rng"
	"smartbalance/internal/stats"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// AblationFeatureSparsity (A6) addresses the Section 6.4 limitation
// discussion — "the dependence on additional counters and sensors for
// fine-grained awareness ... a sparse virtual sensing mechanism
// guaranteeing a minimal number of counters and sensors can be used" —
// by retraining the IPC predictor with groups of counters removed and
// measuring the held-out error increase. It quantifies which of the 10
// counters actually carry the prediction.
func AblationFeatureSparsity(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	types := arch.Table2Types()

	// Feature groups to drop (by column index into the Table 4 vector):
	// FR=0, mr$i=1, mr$d=2, Imsh=3, Ibsh=4, mrb=5, mritlb=6, mrdtlb=7,
	// ipc_src=8, const=9.
	groups := []struct {
		label string
		drop  []int
	}{
		{"full (all 10)", nil},
		{"no TLB counters", []int{6, 7}},
		{"no branch counters", []int{4, 5}},
		{"no cache counters", []int{1, 2}},
		{"no instruction mix", []int{3, 4}},
		{"ipc_src + const only", []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}
	if opts.Quick {
		groups = groups[:3]
	}

	// Profiling corpus and held-out set.
	trainPhases := core.TrainingPhases(80, opts.Seed)
	var held []workload.Phase
	for _, name := range workload.Benchmarks() {
		specs, err := workload.Benchmark(name, 2, opts.Seed*0x9E37+0xC0FFEE)
		if err != nil {
			return nil, err
		}
		for i := range specs {
			held = append(held, specs[i].Phases...)
		}
	}

	pms := make([]*powermodel.CoreModel, len(types))
	for i := range types {
		pm, err := powermodel.NewCoreModel(&types[i])
		if err != nil {
			return nil, err
		}
		pms[i] = pm
	}
	r := rng.New(opts.Seed ^ 0xA6)
	profile := func(phases []workload.Phase, src int, noisy bool) []core.Measurement {
		out := make([]core.Measurement, len(phases))
		sigma := 0.0
		if noisy {
			sigma = 0.02
		}
		for pi := range phases {
			out[pi] = core.ProfileMeasurement(&phases[pi], types, arch.CoreTypeID(src), pms[src], sigma, r)
		}
		return out
	}

	tb := tablefmt.New("Ablation A6: predictor counter sparsity (held-out IPC error)",
		"feature set", "features kept", "mean error %", "vs full")
	var fullErr float64
	for _, g := range groups {
		masked := map[int]bool{}
		for _, d := range g.drop {
			masked[d] = true
		}
		// Fit masked models for every ordered pair, then evaluate on the
		// held-out set.
		var sum float64
		n := 0
		for s := range types {
			trainObs := profile(trainPhases, s, true)
			heldObs := profile(held, s, true)
			for d := range types {
				if s == d {
					continue
				}
				fr := types[d].FreqMHz / types[s].FreqMHz
				rows := make([][]float64, len(trainPhases))
				targets := make([]float64, len(trainPhases))
				for pi := range trainPhases {
					x := core.Features(&trainObs[pi], fr)
					rows[pi] = maskFeatures(x, masked)
					tIPC := exactIPC(&trainPhases[pi], &types[d])
					w := 1.0
					if tIPC > 0.05 {
						w = 1 / tIPC
					}
					for fi := range rows[pi] {
						rows[pi][fi] *= w
					}
					targets[pi] = tIPC * w
				}
				model, err := regress.Ridge(rows, targets)
				if err != nil {
					return nil, fmt.Errorf("A6 %s %d->%d: %w", g.label, s, d, err)
				}
				for pi := range held {
					truth := exactIPC(&held[pi], &types[d])
					if truth <= 1e-9 {
						continue
					}
					pred := model.Predict(maskFeatures(core.Features(&heldObs[pi], fr), masked))
					pred = clampIPC(pred, types[d].PeakIPC)
					sum += abs(pred-truth) / truth
					n++
				}
			}
		}
		meanErr := 100 * sum / float64(n)
		if g.drop == nil {
			fullErr = meanErr
		}
		rel := "1.00x"
		if fullErr > 0 {
			rel = fmt.Sprintf("%.2fx", meanErr/fullErr)
		}
		tb.AddRow(g.label, fmt.Sprintf("%d", core.NumFeatures-len(g.drop)),
			fmt.Sprintf("%.2f", meanErr), rel)
	}
	tb.AddNote("masked counters are zeroed in training and inference; Sec. 6.4's sparse-sensing question")
	return &Result{
		ID:         "A6",
		Title:      "Predictor counter sparsity",
		Table:      tb,
		Headline:   map[string]float64{"full-feature-error-pct": fullErr},
		PaperClaim: "Sec. 6.4: 10 counters + power sensors needed; sparse virtual sensing could reduce them",
	}, nil
}

func maskFeatures(x []float64, masked map[int]bool) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if !masked[i] {
			out[i] = v
		}
	}
	return out
}

func exactIPC(ph *workload.Phase, ct *arch.CoreType) float64 {
	return perfmodel.Evaluate(ph, ct).IPC
}

func clampIPC(v, peak float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	if v > peak {
		return peak
	}
	return v
}

// AblationDVFSHeterogeneity (A7) exercises the Section 3 claim that
// frequency-differentiated identical cores form distinct core types:
// SmartBalance on a DVFS-only heterogeneous platform (one
// micro-architecture at three operating points) versus the vanilla
// balancer.
func AblationDVFSHeterogeneity(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	points := []arch.OperatingPoint{
		{FreqMHz: 1500, VoltageV: 0.80},
		{FreqMHz: 1000, VoltageV: 0.70},
		{FreqMHz: 500, VoltageV: 0.60},
	}
	plat, err := arch.DVFSPlatform(arch.BigCore(), points, 2, powermodel.LeakageFraction)
	if err != nil {
		return nil, err
	}
	workloads := []string{"canneal", "swaptions", "Mix5"}
	if opts.Quick {
		workloads = []string{"Mix5"}
	}
	tb := tablefmt.New("Ablation A7: DVFS-only heterogeneity (Big core @ 1500/1000/500 MHz)",
		"workload", "threads", "vanilla IPS/W", "smartbalance IPS/W", "gain")
	gains, err := gainGrid("A7", plat, workloads, opts, tb, nil)
	if err != nil {
		return nil, err
	}
	mean, err := stats.GeoMean(gains)
	if err != nil {
		return nil, err
	}
	tb.AddNote("identical micro-architecture, three operating points treated as three core types (Sec. 3)")
	return &Result{
		ID:       "A7",
		Title:    "DVFS-only heterogeneity",
		Table:    tb,
		Headline: map[string]float64{"geomean-gain": mean},
		PaperClaim: "cores identical in micro-architecture but at different nominal frequencies " +
			"can be considered distinct core types (Sec. 3)",
	}, nil
}
