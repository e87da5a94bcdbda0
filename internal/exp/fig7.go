package exp

import (
	"fmt"
	"math"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/scenario"
	"smartbalance/internal/tablefmt"
	"smartbalance/internal/workload"
)

// Each F7 scale runs f7Epochs epochs in one kernel Run and must see at
// least f7MinTimed of them reach the optimize phase.
const (
	f7Epochs   = 8
	f7MinTimed = 5
)

// Figure7 regenerates Fig. 7: (a) the per-phase overhead of
// SmartBalance on the quad-core HMP, and (b) the scalability sweep from
// 2 to 128 cores with 4 to 256 threads. At each scale the real
// controller balances a ScalingHMP kernel at the Fig. 8(a) iteration
// budget, and SmartBalance.Overhead times its sense, predict and
// optimize phases (see phaseCost); migration is modelled (see
// core.MigrationCostNs). Paper headline: overhead below 1% of the
// 60 ms epoch for 2-8 cores.
//
// Unlike the other figures this runner stays serial: it measures real
// host wall-clock per phase, and sharing the CPU with sibling cells on
// the sweep worker pool would inflate every timing it reports.
func Figure7(opts Options) (*Result, error) {
	res, _, err := figure7(opts, core.RealClock())
	return res, err
}

// figure7 is Figure7 timed on clk. It also returns each scale's phase
// costs, in scenario order.
func figure7(opts Options, clk core.Clock) (*Result, []core.PhaseOverhead, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	pred, err := scenario.Predictor(arch.Table2Types(), opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	epochNs := kernel.DefaultConfig().EpochNs

	tb := tablefmt.New("Figure 7: SmartBalance per-phase overhead and scalability",
		"cores", "threads", "sense", "predict", "optimize", "migrate*", "total", "% of 60ms epoch")
	scenarios := core.ScalabilityScenarios()
	if opts.Quick {
		scenarios = scenarios[:3]
	}
	costs := make([]core.PhaseOverhead, len(scenarios))
	var quadFrac, maxFrac float64
	for i, sp := range scenarios {
		oh, err := phaseCost(pred, sp, opts.Seed, clk)
		if err != nil {
			return nil, nil, fmt.Errorf("F7 %dc/%dt: %w", sp.Cores, sp.Threads, err)
		}
		costs[i] = oh
		frac := float64(oh.Total()) / float64(epochNs)
		if sp.Cores == 4 {
			quadFrac = frac
		}
		if frac > maxFrac {
			maxFrac = frac
		}
		tb.AddRow(
			fmt.Sprintf("%d", sp.Cores), fmt.Sprintf("%d", sp.Threads),
			fmtDur(oh.Sense), fmtDur(oh.Predict), fmtDur(oh.Optimize), fmtDur(oh.Migrate),
			fmtDur(oh.Total()), fmt.Sprintf("%.3f%%", 100*frac))
	}
	tb.AddNote("sense/predict/optimize: SmartBalance.Rebalance timed by Overhead(), each the fastest of >=%d epochs", f7MinTimed)
	tb.AddNote("migrate* is modelled at %dus per moved thread, 50%% of threads moving (paper's assumption)", core.MigrationCostNs/1000)
	tb.AddNote("paper: overhead negligible (<1%% of the 60ms epoch) for 2-8 cores")
	return &Result{
		ID:       "F7",
		Title:    "Per-phase overhead and scalability",
		Table:    tb,
		Headline: map[string]float64{"quad-core-epoch-fraction": quadFrac, "max-epoch-fraction": maxFrac},
		PaperClaim: "for 2-8 cores the average overhead is negligible w.r.t. the " +
			"60ms epoch (less than 1%)",
	}, costs, nil
}

// phaseCost times the real controller at one scale: a ScalingHMP
// kernel running sp.Threads threads, half fluidanimate and half IMB
// medium/medium (the examples/scalability population), balanced by
// SmartBalance at the Fig. 8(a) budget for f7Epochs epochs in one Run.
// Sense, Predict and Optimize are each the fastest of the epochs that
// reached optimize: host interference only ever adds time, so the
// minimum is the closest estimate of the controller's own cost. Epochs
// counts those epochs. Migrate is modelled, sp.Threads/2 moves at
// core.MigrationCostNs each.
func phaseCost(pred *core.Predictor, sp core.ScalePoint, seed uint64, clk core.Clock) (core.PhaseOverhead, error) {
	plat, err := arch.ScalingHMP(sp.Cores)
	if err != nil {
		return core.PhaseOverhead{}, err
	}
	specs, err := workload.Benchmark("fluidanimate", sp.Threads/2, seed)
	if err != nil {
		return core.PhaseOverhead{}, err
	}
	inter, err := workload.IMB(workload.Medium, workload.Medium, sp.Threads-sp.Threads/2, seed)
	if err != nil {
		return core.PhaseOverhead{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Anneal.MaxIter = 0 // the Fig. 8(a) budget for the scale
	cfg.Anneal.Seed = seed
	cfg.Clock = clk
	sb, err := core.New(pred, cfg)
	if err != nil {
		return core.PhaseOverhead{}, err
	}
	const unset = time.Duration(math.MaxInt64)
	f := &fastestPhases{sb: sb, best: core.PhaseOverhead{Sense: unset, Predict: unset, Optimize: unset}}
	if _, err := scenario.Run(plat, f, append(specs, inter...), f7Epochs*kernel.DefaultConfig().EpochNs,
		seededConfig(seed), machine.Options{}, false, nil); err != nil {
		return core.PhaseOverhead{}, err
	}
	if f.best.Epochs < f7MinTimed {
		return core.PhaseOverhead{}, fmt.Errorf("only %d of %d epochs reached optimize, want >= %d",
			f.best.Epochs, f7Epochs, f7MinTimed)
	}
	f.best.Migrate = time.Duration(sp.Threads/2) * core.MigrationCostNs
	return f.best, nil
}

// fastestPhases is the balancer phaseCost runs: the controller, plus
// the smallest per-epoch delta of its Overhead in each timed phase over
// the epochs that reached optimize.
type fastestPhases struct {
	sb   *core.SmartBalance
	best core.PhaseOverhead
}

func (f *fastestPhases) Name() string { return f.sb.Name() }

func (f *fastestPhases) Rebalance(k *kernel.Kernel, now kernel.Time,
	threads []hpc.ThreadSample, cores []hpc.CoreEpochSample) {
	before := f.sb.Overhead()
	f.sb.Rebalance(k, now, threads, cores)
	after := f.sb.Overhead()
	if after.Optimize == before.Optimize {
		return // the epoch stopped before optimize
	}
	f.best.Sense = min(f.best.Sense, after.Sense-before.Sense)
	f.best.Predict = min(f.best.Predict, after.Predict-before.Predict)
	f.best.Optimize = min(f.best.Optimize, after.Optimize-before.Optimize)
	f.best.Epochs++
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
}
