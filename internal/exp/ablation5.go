package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/machine"
	"smartbalance/internal/scenario"
	"smartbalance/internal/tablefmt"
)

// AblationObjectiveGoals (A10) exercises Section 4.3's remark that the
// cost function "can be defined in several ways according to the
// desired optimization goals": the same SmartBalance machinery is run
// with the energy-efficiency goal (the paper's) and the
// throughput-first goal, showing the performance-vs-efficiency trade
// the goal selection buys.
func AblationObjectiveGoals(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	pred, err := scenario.Predictor(arch.Table2Types(), opts.Seed)
	if err != nil {
		return nil, err
	}
	modes := []core.ObjectiveMode{core.GlobalRatio, core.MaxThroughput}
	workloads := []string{"swaptions", "Mix5"}
	if opts.Quick {
		workloads = []string{"Mix5"}
	}

	tb := tablefmt.New("Ablation A10: optimisation goal (Sec. 4.3)",
		"workload", "goal", "IPS", "power (W)", "IPS/W")
	type cell struct{ ips, pow, ee float64 }
	results := map[string]map[core.ObjectiveMode]cell{}
	for _, name := range workloads {
		results[name] = map[core.ObjectiveMode]cell{}
		for _, mode := range modes {
			cfg := core.DefaultConfig()
			cfg.Anneal.Seed = opts.Seed
			cfg.Objective = mode
			sb, err := core.New(pred, cfg)
			if err != nil {
				return nil, err
			}
			specs, err := scenario.Workload(name, 4, opts.Seed)
			if err != nil {
				return nil, err
			}
			st, err := scenario.Run(plat, sb, specs, opts.DurationNs, seededConfig(opts.Seed), machine.Options{}, false, nil)
			if err != nil {
				return nil, fmt.Errorf("A10 %s/%s: %w", name, mode, err)
			}
			c := cell{st.IPS(), st.PowerW(), st.EnergyEfficiency()}
			results[name][mode] = c
			tb.AddRow(name, mode.String(), tablefmt.FormatFloat(c.ips),
				fmt.Sprintf("%.3f", c.pow), tablefmt.FormatFloat(c.ee))
		}
	}
	// Headline: on the last workload, the trade-off factors.
	last := results[workloads[len(workloads)-1]]
	perfGain := last[core.MaxThroughput].ips / last[core.GlobalRatio].ips
	eeCost := last[core.GlobalRatio].ee / last[core.MaxThroughput].ee
	tb.AddNote("throughput goal buys %.2fx IPS at %.2fx worse IPS/W (last workload)", perfGain, eeCost)
	return &Result{
		ID:       "A10",
		Title:    "Optimisation-goal selection",
		Table:    tb,
		Headline: map[string]float64{"throughput-gain": perfGain, "ee-cost-factor": eeCost},
		PaperClaim: "Sec. 4.3: the objective can be defined in several ways according " +
			"to the desired optimization goals",
	}, nil
}
