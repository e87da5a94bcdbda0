// Package exp implements the experiment harness: one runner per table
// and figure of the paper's evaluation (Tables 2-4, Figures 4-8). Each
// runner produces a structured Result whose rows regenerate the paper's
// artefact, plus headline metrics the EXPERIMENTS.md comparison is
// written from.
package exp

import (
	"errors"
	"fmt"
	"strings"

	"smartbalance/internal/arch"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/scenario"
	"smartbalance/internal/sweep"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives workload jitter, sensor noise, and the optimiser.
	Seed uint64
	// DurationNs is the simulated span of each scenario run.
	DurationNs int64
	// ThreadCounts is the parallelisation sweep (the paper uses 2,4,8).
	ThreadCounts []int
	// Quick trims workload sets and repetition counts so the full suite
	// runs in seconds; used by tests. Full runs leave it false.
	Quick bool
	// Workers bounds the sweep-engine worker pool the runners fan their
	// independent scenario cells out on (internal/sweep). <= 0 selects
	// GOMAXPROCS; 1 forces the serial path. Results are byte-identical
	// for every setting — parallelism only changes wall-clock time.
	Workers int
}

// DefaultOptions returns the standard experiment configuration.
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		DurationNs:   1_200e6, // 1.2 s simulated per scenario
		ThreadCounts: []int{2, 4, 8},
	}
}

func (o *Options) validate() error {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DurationNs <= 0 {
		return errors.New("exp: non-positive duration")
	}
	if len(o.ThreadCounts) == 0 {
		return errors.New("exp: empty thread-count sweep")
	}
	for _, tc := range o.ThreadCounts {
		if tc < 1 {
			return fmt.Errorf("exp: invalid thread count %d", tc)
		}
	}
	return nil
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the paper artefact id: "T2".."T4", "F4a".."F8".
	ID string
	// Title describes the artefact.
	Title string
	// Table holds the regenerated rows.
	Table *tablefmt.Table
	// Headline carries the metrics compared against the paper in
	// EXPERIMENTS.md (e.g. mean energy-efficiency gain).
	Headline map[string]float64
	// PaperClaim documents the corresponding number(s) in the paper.
	PaperClaim string
	// Bars, when set, renders the artefact the way the paper draws it
	// (Figs. 4 and 5 are per-workload bar charts).
	Bars *tablefmt.Bars
}

// Runner regenerates one artefact.
type Runner func(Options) (*Result, error)

// Registry maps artefact ids to runners, in paper order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"T1", TableRelatedWork},
		{"T2", TableCoreConfigs},
		{"T3", TableBenchmarkMixes},
		{"T4", TablePredictorCoefficients},
		{"F4a", Figure4a},
		{"F4b", Figure4b},
		{"F5", Figure5},
		{"F6", Figure6},
		{"F7", Figure7},
		{"F8", Figure8},
		{"A1", AblationPredictionVsOracle},
		{"A2", AblationObjectiveMode},
		{"A3", AblationFixedPointSA},
		{"A4", AblationEpochLength},
		{"A5", AblationMigrationPenalty},
		{"A6", AblationFeatureSparsity},
		{"A7", AblationDVFSHeterogeneity},
		{"A8", AblationThermal},
		{"A9", AblationBusContention},
		{"A10", AblationObjectiveGoals},
		{"A11", AblationFairness},
		{"A12", AblationSensorNoise},
		{"A13", AblationFaultRobustness},
		{"A14", AblationContention},
	}
}

// RunnerFor returns the runner for an artefact id, or nil.
func RunnerFor(id string) Runner {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run
		}
	}
	return nil
}

// seededConfig is the kernel config every run starts from: the default,
// seeded with the experiment seed.
func seededConfig(seed uint64) kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// runNamed simulates specs on plat for durNs under a fresh balancer
// resolved by name through scenario.Balancer (SmartBalance trained and
// annealed with cfg.Seed) and returns the run statistics.
func runNamed(plat *arch.Platform, name string, specs []workload.ThreadSpec, durNs int64,
	cfg kernel.Config, mopts machine.Options, aware bool) (*kernel.RunStats, error) {
	bal, err := scenario.Balancer(name, plat, cfg.Seed, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return scenario.Run(plat, bal, specs, durNs, cfg, mopts, aware, nil)
}

// eeGain runs workload wl at threads under the base and test balancers
// and returns EE(test)/EE(base).
func eeGain(plat *arch.Platform, base, test, wl string, threads int, opts Options) (gain, baseEE, testEE float64, err error) {
	var ee [2]float64
	for i, name := range []string{base, test} {
		specs, err := scenario.Workload(wl, threads, opts.Seed)
		if err != nil {
			return 0, 0, 0, err
		}
		st, err := runNamed(plat, name, specs, opts.DurationNs, seededConfig(opts.Seed), machine.Options{}, false)
		if err != nil {
			return 0, 0, 0, err
		}
		ee[i] = st.EnergyEfficiency()
	}
	baseEE, testEE = ee[0], ee[1]
	if baseEE <= 0 {
		return 0, baseEE, testEE, errors.New("exp: baseline achieved zero energy efficiency")
	}
	return testEE / baseEE, baseEE, testEE, nil
}

// gainGrid runs every workload at every thread count of opts under
// vanilla and under SmartBalance on plat, fanned out on the sweep
// engine's worker pool. It adds one row per cell to tb, and one bar to
// bars when bars is non-nil, in cell order — byte-identical for any
// worker count — and returns the gains in the same order. An
// imb:<code> workload is labelled <code>.
func gainGrid(id string, plat *arch.Platform, workloads []string, opts Options, tb *tablefmt.Table, bars *tablefmt.Bars) ([]float64, error) {
	type cell struct {
		wl, label string
		tc        int
	}
	var cells []cell
	for _, wl := range workloads {
		for _, tc := range opts.ThreadCounts {
			cells = append(cells, cell{wl, strings.TrimPrefix(wl, "imb:"), tc})
		}
	}
	type gainCell struct{ gain, baseEE, testEE float64 }
	res, err := sweep.Map(opts.Workers, len(cells), func(i int) (gainCell, error) {
		c := cells[i]
		gain, baseEE, testEE, err := eeGain(plat, "vanilla", "smartbalance", c.wl, c.tc, opts)
		if err != nil {
			return gainCell{}, fmt.Errorf("%s %s/%d: %w", id, c.label, c.tc, err)
		}
		return gainCell{gain, baseEE, testEE}, nil
	})
	if err != nil {
		return nil, err
	}
	gains := make([]float64, len(cells))
	for i, c := range cells {
		gains[i] = res[i].gain
		tb.AddRow(c.label, fmt.Sprintf("%d", c.tc),
			tablefmt.FormatFloat(res[i].baseEE), tablefmt.FormatFloat(res[i].testEE),
			fmt.Sprintf("%.2fx", res[i].gain))
		if bars != nil {
			bars.Labels = append(bars.Labels, fmt.Sprintf("%s/%d", c.label, c.tc))
			bars.Values = append(bars.Values, res[i].gain)
		}
	}
	return gains, nil
}
