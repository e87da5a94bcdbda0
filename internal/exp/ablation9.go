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

// A14 workload vocabulary: a cache-sensitive victim pool plus the two
// antagonist profiles of the synth grammar (ant=1 streaming, ant=2
// cache-resident). Victims reuse a working set that fits a shared LLC
// slice comfortably when undisturbed; the antagonists are exactly the
// co-runners that steal it.
const (
	a14Victim    = "synth:phases=1,ins=80,ilp=3,mem=0.3,wsd=384"
	a14Streaming = "synth:phases=1,ins=120,ilp=2,mem=0.4,wsd=2048,ant=1"
	a14CacheRes  = "synth:phases=1,ins=120,ilp=2,mem=0.4,wsd=2048,ant=2"
	a14VictimsN  = 2
	a14PerAntN   = 1
	// a14DurMult stretches the run past the default scenario span so the
	// aware controller's convergence transient (a handful of epochs) is
	// amortised against its steady-state hold; the blind twin churns for
	// the whole run regardless.
	a14DurMult = 3
)

// a14Workload materialises the antagonist mix (victims plus both
// aggressor flavours) or, with antagonists=false, the victim pool alone.
func a14Workload(antagonists bool, seed uint64) ([]workload.ThreadSpec, error) {
	specs, err := workload.Synth(a14Victim, a14VictimsN, seed)
	if err != nil {
		return nil, err
	}
	if !antagonists {
		return specs, nil
	}
	for _, ant := range []string{a14Streaming, a14CacheRes} {
		more, err := workload.Synth(ant, a14PerAntN, seed)
		if err != nil {
			return nil, err
		}
		specs = append(specs, more...)
	}
	return specs, nil
}

// AblationContention (A14) isolates the value of contention-aware
// placement. The paper's model treats cores as private-cache islands;
// internal/contention adds the cluster LLC and memory-bandwidth
// interference real MPSoCs exhibit. The ablation runs the
// dual-little-cluster big.LITTLE part (HexaDualCluster — the little
// type spans two LLC domains, so a type-indexed predictor cannot tell
// the placements apart) through three regimes — contention model off,
// model on with victims only, and model on with cache/bandwidth
// antagonists mixed in — and races the contention-aware controller
// (objective carries the interference term) against its blind twin
// (same controller, term withheld). The contract
// TestAblationContention gates: aware == blind bit-for-bit with the
// model off, and aware strictly ahead on the antagonist mix, where
// placement decides which threads get mauled; on non-contended mixes
// aware ~= blind.
func AblationContention(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.HexaDualCluster()
	rows := []struct {
		label       string
		spec        contention.Spec
		antagonists bool
	}{
		{"model off, antagonists", contention.Spec{}, true},
		{"model on, victims only", contention.Spec{Enabled: true}, false},
		{"model on, antagonists", contention.Spec{Enabled: true}, true},
	}
	if opts.Quick {
		rows = []struct {
			label       string
			spec        contention.Spec
			antagonists bool
		}{rows[0], rows[2]}
	}

	run := func(name string, row int, aware bool) (*kernel.RunStats, error) {
		specs, err := a14Workload(rows[row].antagonists, opts.Seed)
		if err != nil {
			return nil, err
		}
		return runNamed(plat, name, specs, a14DurMult*opts.DurationNs, seededConfig(opts.Seed),
			machine.Options{Contention: rows[row].spec}, aware)
	}

	tb := tablefmt.New("Ablation A14: contention-aware placement (big.LITTLE, victims + antagonists)",
		"regime", "vanilla IPS/W", "gts IPS/W", "blind IPS/W", "aware IPS/W", "aware/blind")
	headline := map[string]float64{}
	for i, row := range rows {
		van, err := run("vanilla", i, false)
		if err != nil {
			return nil, fmt.Errorf("A14 %s vanilla: %w", row.label, err)
		}
		gt, err := run("gts", i, false)
		if err != nil {
			return nil, fmt.Errorf("A14 %s gts: %w", row.label, err)
		}
		blind, err := run("smartbalance", i, false)
		if err != nil {
			return nil, fmt.Errorf("A14 %s blind: %w", row.label, err)
		}
		aware, err := run("smartbalance", i, true)
		if err != nil {
			return nil, fmt.Errorf("A14 %s aware: %w", row.label, err)
		}
		ratio := aware.EnergyEfficiency() / blind.EnergyEfficiency()
		switch row.label {
		case "model off, antagonists":
			headline["aware-over-blind-model-off"] = ratio
		case "model on, victims only":
			headline["aware-over-blind-clean"] = ratio
		case "model on, antagonists":
			headline["aware-over-blind-antagonist"] = ratio
			headline["aware-over-vanilla-antagonist"] = aware.EnergyEfficiency() / van.EnergyEfficiency()
		}
		tb.AddRow(row.label,
			tablefmt.FormatFloat(van.EnergyEfficiency()),
			tablefmt.FormatFloat(gt.EnergyEfficiency()),
			tablefmt.FormatFloat(blind.EnergyEfficiency()),
			tablefmt.FormatFloat(aware.EnergyEfficiency()),
			fmt.Sprintf("%.3fx", ratio))
	}
	tb.AddNote("blind and aware are the same trained controller; aware additionally couples SetContention to the machine's model")
	tb.AddNote("with the model off the interference term is absent from machine and objective alike: aware == blind bit-for-bit")
	tb.AddNote("antagonists: ant=1 streaming (bandwidth) and ant=2 cache-resident (LLC occupancy) synth aggressors")
	return &Result{
		ID:       "A14",
		Title:    "LLC/memory-bandwidth contention and contention-aware placement",
		Table:    tb,
		Headline: headline,
		PaperClaim: "not in the paper — the model assumes private caches end at L2 and cores " +
			"meet only at the memory bus; A14 adds cluster-LLC and bandwidth interference " +
			"and shows sensing-driven placement can account for it",
	}, nil
}
