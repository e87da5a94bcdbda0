// Package exp implements the experiment harness: one runner per table
// and figure of the paper's evaluation (Tables 2-4, Figures 4-8). Each
// runner produces a structured Result whose rows regenerate the paper's
// artefact, plus headline metrics the EXPERIMENTS.md comparison is
// written from.
package exp

import (
	"errors"
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/scenario"
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

// balancerFactory builds a fresh balancer per run (balancers carry
// per-run state).
type balancerFactory func(plat *arch.Platform) (kernel.Balancer, error)

// runScenario simulates specs on plat under a fresh balancer from the
// factory for the given duration, with the default kernel config
// seeded by seed, and returns the run statistics.
func runScenario(plat *arch.Platform, bf balancerFactory, specs []workload.ThreadSpec, durNs int64, seed uint64) (*kernel.RunStats, error) {
	b, err := bf(plat)
	if err != nil {
		return nil, err
	}
	cfg := kernel.DefaultConfig()
	cfg.Seed = seed
	return scenario.Run(plat, b, specs, durNs, cfg, machine.Options{}, false, nil)
}

// trainedSmartBalanceFactory trains (or reuses, through the shared
// scenario.Predictor memo) the predictor for the type set and returns
// a factory producing fresh controllers.
func trainedSmartBalanceFactory(types []arch.CoreType, seed uint64) (balancerFactory, error) {
	pred, err := scenario.Predictor(types, seed)
	if err != nil {
		return nil, err
	}
	return func(*arch.Platform) (kernel.Balancer, error) {
		cfg := core.DefaultConfig()
		cfg.Anneal.Seed = seed
		return core.New(pred, cfg)
	}, nil
}

// eeGain runs the same workload under two balancers and returns
// EE(test)/EE(base).
func eeGain(plat *arch.Platform, base, test balancerFactory, mkSpecs func() ([]workload.ThreadSpec, error), durNs int64, seed uint64) (gain, baseEE, testEE float64, err error) {
	specsA, err := mkSpecs()
	if err != nil {
		return 0, 0, 0, err
	}
	sa, err := runScenario(plat, base, specsA, durNs, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	specsB, err := mkSpecs()
	if err != nil {
		return 0, 0, 0, err
	}
	sb, err := runScenario(plat, test, specsB, durNs, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	baseEE = sa.EnergyEfficiency()
	testEE = sb.EnergyEfficiency()
	if baseEE <= 0 {
		return 0, baseEE, testEE, errors.New("exp: baseline achieved zero energy efficiency")
	}
	return testEE / baseEE, baseEE, testEE, nil
}
