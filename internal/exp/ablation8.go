package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/fault"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// compositeFaultPlan builds the A13 fault mix at severity f in [0, 1]:
// the five mutually exclusive sensor faults share probability mass f
// (weighted toward drops, the most common real failure), and valid
// migration requests are refused with probability f.
func compositeFaultPlan(f float64) fault.Plan {
	return fault.Plan{
		DropRate:        0.4 * f,
		StaleRate:       0.2 * f,
		CorruptRate:     0.2 * f,
		PowerDropRate:   0.1 * f,
		PowerSpikeRate:  0.1 * f,
		MigrateFailRate: f,
	}
}

// AblationFaultRobustness (A13) stresses the premise behind the
// hardened sense→predict→balance loop: a *sensing-driven* balancer is
// only deployable if sensing failures degrade it gracefully. A
// composite fault mix (drops, stale replays, corruption, power-sensor
// faults, refused migrations) is swept from clean to a total counter
// blackout, and the energy-efficiency gain over vanilla re-measured at
// each severity. The contract under test: the gain decays toward 1x as
// faults erase the balancer's information advantage, and under 100 %
// sensor dropout hardened SmartBalance skips rebalancing entirely —
// landing exactly on the counter-agnostic vanilla baseline, never
// below it.
func AblationFaultRobustness(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.OctaBigLittle()
	rows := []struct {
		label string
		plan  fault.Plan
	}{
		{"clean", fault.Plan{}},
		{"25% mix", compositeFaultPlan(0.25)},
		{"50% mix", compositeFaultPlan(0.50)},
		{"75% mix", compositeFaultPlan(0.75)},
		{"blackout", fault.Plan{DropRate: 1}},
	}
	if opts.Quick {
		rows = []struct {
			label string
			plan  fault.Plan
		}{rows[0], rows[2], rows[4]}
	}

	run := func(name string, plan fault.Plan) (*kernel.RunStats, error) {
		specs, err := workload.Mix("Mix5", 4, opts.Seed)
		if err != nil {
			return nil, err
		}
		cfg := seededConfig(opts.Seed)
		if !plan.IsZero() {
			// A fresh injector per run: injectors are stateful (stale
			// replay history, fault counters) and serve one kernel.
			inj, err := fault.New(plan, fault.SeedFor(opts.Seed))
			if err != nil {
				return nil, err
			}
			cfg.Faults = inj
		}
		return runNamed(plat, name, specs, opts.DurationNs, cfg, machine.Options{}, false)
	}

	tb := tablefmt.New("Ablation A13: fault-injection robustness (big.LITTLE, Mix5, 4 threads)",
		"fault mix", "vanilla IPS/W", "gts IPS/W", "smartbalance IPS/W", "SB gain")
	headline := map[string]float64{}
	minGain := 1e9
	for _, row := range rows {
		van, err := run("vanilla", row.plan)
		if err != nil {
			return nil, fmt.Errorf("A13 %s vanilla: %w", row.label, err)
		}
		gt, err := run("gts", row.plan)
		if err != nil {
			return nil, fmt.Errorf("A13 %s gts: %w", row.label, err)
		}
		sm, err := run("smartbalance", row.plan)
		if err != nil {
			return nil, fmt.Errorf("A13 %s smart: %w", row.label, err)
		}
		gain := sm.EnergyEfficiency() / van.EnergyEfficiency()
		if gain < minGain {
			minGain = gain
		}
		switch row.label {
		case "clean":
			headline["clean-gain"] = gain
		case "blackout":
			headline["gain-at-full-dropout"] = gain
		}
		tb.AddRow(row.label,
			tablefmt.FormatFloat(van.EnergyEfficiency()),
			tablefmt.FormatFloat(gt.EnergyEfficiency()),
			tablefmt.FormatFloat(sm.EnergyEfficiency()),
			fmt.Sprintf("%.2fx", gain))
	}
	headline["min-gain-under-faults"] = minGain
	tb.AddNote("faults corrupt only what balancers observe; vanilla and GTS read no counters and are unaffected")
	tb.AddNote("n%% mix: drop/stale/corrupt/powerdrop/powerspike split n%% sensor-fault mass; migrations also fail n%% of the time")
	tb.AddNote("blackout = 100%% counter dropout: hardened SmartBalance skips rebalancing and holds fork placement")
	return &Result{
		ID:       "A13",
		Title:    "Fault-injection robustness and graceful degradation",
		Table:    tb,
		Headline: headline,
		PaperClaim: "not in the paper — hardening ablation: Sec. 6.4 flags the dependence " +
			"on counters and sensors; under injected sensing faults the gain must decay " +
			"gracefully toward vanilla and never fall below it",
	}, nil
}
