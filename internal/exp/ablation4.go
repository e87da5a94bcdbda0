package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/contention"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// AblationBusContention (A9) enables the contention model's chip-wide
// bus term (the paper's Section 5 platform connects all cores to memory
// through one bus) at several bus bandwidths and checks that
// SmartBalance's advantage over the vanilla balancer survives
// cross-core interference — the substrate assumption the headline
// figures silently rely on.
func AblationBusContention(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	bandwidths := []float64{0, 8, 2, 0.5} // GB/s; 0 = contention disabled
	if opts.Quick {
		bandwidths = []float64{0, 1}
	}
	tb := tablefmt.New("Ablation A9: shared-bus contention (canneal x4, memory-bound)",
		"bus GB/s", "vanilla IPS/W", "smartbalance IPS/W", "gain")
	var minGain float64 = 1e9
	var freeVanilla float64
	for _, bw := range bandwidths {
		// QuadHMP's four LLC domains hold one core each, so the domain
		// terms never act and only the bus does.
		var mopts machine.Options
		if bw > 0 {
			mopts.Contention = contention.Spec{Enabled: true, BusGBps: bw}
		}
		run := func(name string) (*kernel.RunStats, error) {
			specs, err := workload.Benchmark("canneal", 4, opts.Seed)
			if err != nil {
				return nil, err
			}
			return runNamed(plat, name, specs, opts.DurationNs, seededConfig(opts.Seed), mopts, false)
		}
		van, err := run("vanilla")
		if err != nil {
			return nil, fmt.Errorf("A9 bw=%g vanilla: %w", bw, err)
		}
		sm, err := run("smartbalance")
		if err != nil {
			return nil, fmt.Errorf("A9 bw=%g smart: %w", bw, err)
		}
		if bw == 0 { //sbvet:allow floateq(bw ranges over config literals; 0 is the contention-disabled setting, never computed)
			freeVanilla = van.EnergyEfficiency()
		}
		gain := sm.EnergyEfficiency() / van.EnergyEfficiency()
		if gain < minGain {
			minGain = gain
		}
		label := "off"
		if bw > 0 {
			label = fmt.Sprintf("%.1f", bw)
		}
		tb.AddRow(label, tablefmt.FormatFloat(van.EnergyEfficiency()),
			tablefmt.FormatFloat(sm.EnergyEfficiency()), fmt.Sprintf("%.2fx", gain))
	}
	tb.AddNote("M/M/1-style queueing on the chip's aggregate L2-miss traffic (every core's 5 ms EWMA, idle cores decaying to zero) over the bus bandwidth; uncontended vanilla baseline %.3g IPS/W", freeVanilla)
	return &Result{
		ID:       "A9",
		Title:    "Shared-bus contention",
		Table:    tb,
		Headline: map[string]float64{"min-gain-under-contention": minGain},
		PaperClaim: "Section 5: 'the cores are connected to the main memory through a " +
			"shared bus' — contention must not erase the balancing gains",
	}, nil
}
