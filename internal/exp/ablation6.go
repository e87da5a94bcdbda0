package exp

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/machine"
	"smartbalance/internal/stats"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// AblationFairness (A11) asks the question the energy-efficiency
// objective invites: does SmartBalance starve some threads to feed the
// efficient cores? It measures Jain's fairness index over per-thread
// retired instructions within each benchmark of a mix, under vanilla
// and under SmartBalance. (Within a benchmark the worker threads are
// near-identical, so instruction counts should be near-equal — index
// close to 1 — when the balancer is fair.)
func AblationFairness(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	plat := arch.QuadHMP()
	mixes := []string{"Mix1", "Mix5", "Mix6"}
	if opts.Quick {
		mixes = []string{"Mix5"}
	}
	threads := 4

	tb := tablefmt.New("Ablation A11: intra-benchmark fairness (Jain's index over thread progress)",
		"mix", "benchmark", "vanilla fairness", "smartbalance fairness")
	var worstSmart float64 = 1
	for _, mix := range mixes {
		fairnessOf := func(name string) (map[string]float64, error) {
			specs, err := workload.Mix(mix, threads, opts.Seed)
			if err != nil {
				return nil, err
			}
			st, err := runNamed(plat, name, specs, opts.DurationNs, seededConfig(opts.Seed), machine.Options{}, false)
			if err != nil {
				return nil, err
			}
			perBench := map[string][]float64{}
			for _, ts := range st.Tasks {
				perBench[ts.Benchmark] = append(perBench[ts.Benchmark], float64(ts.Instr))
			}
			out := map[string]float64{}
			for b, xs := range perBench {
				j, err := stats.JainFairness(xs)
				if err != nil {
					return nil, err
				}
				out[b] = j
			}
			return out, nil
		}
		van, err := fairnessOf("vanilla")
		if err != nil {
			return nil, fmt.Errorf("A11 %s vanilla: %w", mix, err)
		}
		sm, err := fairnessOf("smartbalance")
		if err != nil {
			return nil, fmt.Errorf("A11 %s smart: %w", mix, err)
		}
		benches, err := workload.MixContents(mix)
		if err != nil {
			return nil, err
		}
		for _, b := range benches {
			if sm[b] < worstSmart {
				worstSmart = sm[b]
			}
			tb.AddRow(mix, b, fmt.Sprintf("%.3f", van[b]), fmt.Sprintf("%.3f", sm[b]))
		}
	}
	tb.AddNote("index 1.0 = perfectly equal progress among a benchmark's workers; 1/n = one worker hoards the machine")
	return &Result{
		ID:       "A11",
		Title:    "Intra-benchmark fairness",
		Table:    tb,
		Headline: map[string]float64{"worst-smart-fairness": worstSmart},
		PaperClaim: "implicit: CFS keeps per-core fairness, and the balancer must not " +
			"starve threads to maximise Eq. (10)",
	}, nil
}
