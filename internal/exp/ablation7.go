package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// AblationSensorNoise (A12) probes the premise in the title: the
// balancer is *sensing-driven*, so how much sensor quality does it
// actually need? The power-sensor noise is swept from 0 to 20 % and the
// energy-efficiency gain over vanilla re-measured at each level.
// Section 6.4 worries about "the dependence on additional counters and
// sensors"; this quantifies the dependence on their *quality*.
func AblationSensorNoise(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	sigmas := []float64{0, 0.02, 0.05, 0.10, 0.20}
	if opts.Quick {
		sigmas = []float64{0, 0.10}
	}
	tb := tablefmt.New("Ablation A12: power-sensor noise robustness (Mix5, 4 threads)",
		"sensor sigma", "vanilla IPS/W", "smartbalance IPS/W", "gain")
	var minGain float64 = 1e9
	for _, sigma := range sigmas {
		cfg := seededConfig(opts.Seed)
		cfg.Noise = hpc.Noise{PowerSigma: sigma}
		run := func(name string) (*kernel.RunStats, error) {
			specs, err := workload.Mix("Mix5", 4, opts.Seed)
			if err != nil {
				return nil, err
			}
			return runNamed(plat, name, specs, opts.DurationNs, cfg, machine.Options{}, false)
		}
		van, err := run("vanilla")
		if err != nil {
			return nil, fmt.Errorf("A12 sigma=%g vanilla: %w", sigma, err)
		}
		sm, err := run("smartbalance")
		if err != nil {
			return nil, fmt.Errorf("A12 sigma=%g smart: %w", sigma, err)
		}
		gain := sm.EnergyEfficiency() / van.EnergyEfficiency()
		if gain < minGain {
			minGain = gain
		}
		tb.AddRow(fmt.Sprintf("%.0f%%", 100*sigma),
			tablefmt.FormatFloat(van.EnergyEfficiency()),
			tablefmt.FormatFloat(sm.EnergyEfficiency()),
			fmt.Sprintf("%.2fx", gain))
	}
	tb.AddNote("noise applies to the power sensors only; counters are exact in hardware")
	return &Result{
		ID:       "A12",
		Title:    "Power-sensor noise robustness",
		Table:    tb,
		Headline: map[string]float64{"min-gain-under-noise": minGain},
		PaperClaim: "the approach is sensing-driven (title); Sec. 6.4 discusses the " +
			"dependence on sensors — gains must survive realistic sensor error",
	}, nil
}
