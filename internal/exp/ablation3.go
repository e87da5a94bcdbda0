package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/scenario"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/thermal"
	"smartbalance/internal/workload"
)

// AblationThermal (A8) evaluates the thermal-aware extension: wrapping
// SmartBalance with RC-model temperature feedback that derates hot
// cores' objective weights. It sweeps the derating threshold and
// reports the peak die temperature versus the energy-efficiency cost —
// the Eq. (11) weight knob applied to the Sec. 6.4 thermal outlook.
func AblationThermal(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	pred, err := scenario.Predictor(arch.Table2Types(), opts.Seed)
	if err != nil {
		return nil, err
	}
	mkInner := func() (*core.SmartBalance, error) {
		cfg := core.DefaultConfig()
		cfg.Anneal.Seed = opts.Seed
		return core.New(pred, cfg)
	}

	type variant struct {
		label        string
		derateAboveC float64 // <= 0 means no thermal wrapper
	}
	variants := []variant{
		{"plain smartbalance", 0},
		{"derate above 58C", 58},
		{"derate above 54C", 54},
		{"derate above 50C", 50},
	}
	if opts.Quick {
		variants = variants[:2]
	}

	tb := tablefmt.New("Ablation A8: thermal-aware weight derating (swaptions x4)",
		"policy", "IPS/W", "peak temp (C)", "EE vs plain")
	var plainEE, worstTempDrop float64
	var coolest float64 = 1e9
	var plainTemp float64
	for _, v := range variants {
		inner, err := mkInner()
		if err != nil {
			return nil, err
		}
		params, err := thermal.FromPlatform(plat)
		if err != nil {
			return nil, err
		}
		tracker, err := thermal.NewTracker(params)
		if err != nil {
			return nil, err
		}
		var bal kernel.Balancer = inner
		if v.derateAboveC > 0 {
			aw, err := thermal.NewAware(inner, tracker)
			if err != nil {
				return nil, err
			}
			aw.DerateAboveC = v.derateAboveC
			aw.CriticalC = v.derateAboveC + 10
			bal = aw
		}
		specs, err := workload.Benchmark("swaptions", 4, opts.Seed)
		if err != nil {
			return nil, err
		}
		st, err := scenario.Run(plat, bal, specs, opts.DurationNs, seededConfig(opts.Seed), machine.Options{}, false, nil)
		if err != nil {
			return nil, fmt.Errorf("A8 %s: %w", v.label, err)
		}
		ee := st.EnergyEfficiency()
		var peak float64
		if v.derateAboveC > 0 {
			peak = tracker.MaxSeen()
		} else {
			// Estimate the plain run's peak with the same RC model fed by
			// the run's average per-core powers.
			power := make([]float64, plat.NumCores())
			for j := range st.Cores {
				power[j] = st.Cores[j].EnergyJ / (float64(st.SpanNs) * 1e-9)
			}
			for i := 0; i < 400; i++ {
				if err := tracker.Advance(10e6, power); err != nil {
					return nil, err
				}
			}
			peak = tracker.MaxSeen()
			plainEE = ee
			plainTemp = peak
		}
		rel := 1.0
		if plainEE > 0 {
			rel = ee / plainEE
		}
		if peak < coolest {
			coolest = peak
		}
		if drop := plainTemp - peak; drop > worstTempDrop {
			worstTempDrop = drop
		}
		tb.AddRow(v.label, tablefmt.FormatFloat(ee), fmt.Sprintf("%.1f", peak), fmt.Sprintf("%.3f", rel))
	}
	tb.AddNote("tighter thresholds trade energy efficiency for a cooler die via the Eq.(11) weights")
	return &Result{
		ID:       "A8",
		Title:    "Thermal-aware weight derating",
		Table:    tb,
		Headline: map[string]float64{"plain-peak-c": plainTemp, "coolest-peak-c": coolest},
		PaperClaim: "weights ω_j can be tuned to give preference to certain cores (Sec. 4.3); " +
			"thermal tracking is the Sec. 6.4 outlook",
	}, nil
}
