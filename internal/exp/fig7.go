package exp

import (
	"fmt"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/core"
	"smartbalance/internal/kernel"
	"smartbalance/internal/tablefmt"
)

// Figure7 regenerates Fig. 7: (a) the per-phase overhead of
// SmartBalance on the quad-core HMP, and (b) the scalability sweep from
// 2 to 128 cores with 4 to 256 threads, timing the real sense, predict,
// and optimize implementations at each scale (migration is modelled,
// see core.MigrationCostNs). Paper headline: overhead below 1% of the
// 60 ms epoch for 2-8 cores.
//
// Unlike the other figures this runner stays serial: it measures real
// host wall-clock per phase, and sharing the CPU with sibling cells on
// the sweep worker pool would inflate every timing it reports.
func Figure7(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Seed = opts.Seed
	pred, err := core.Train(arch.Table2Types(), tc)
	if err != nil {
		return nil, err
	}
	// Every scale keeps each phase's fastest of five passes, quick mode
	// included: a single pass on a shared host reports whatever
	// preemption landed inside it.
	const repeat = 5
	epochNs := kernel.DefaultConfig().EpochNs

	tb := tablefmt.New("Figure 7: SmartBalance per-phase overhead and scalability",
		"cores", "threads", "sense", "predict", "optimize", "migrate*", "total", "% of 60ms epoch")
	scenarios := core.ScalabilityScenarios()
	if opts.Quick {
		scenarios = scenarios[:3]
	}
	var quadFrac, maxFrac float64
	for _, sp := range scenarios {
		pt, err := core.MeasurePhases(pred, sp, repeat, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("F7 %dc/%dt: %w", sp.Cores, sp.Threads, err)
		}
		frac := pt.FractionOfEpoch(epochNs)
		if sp.Cores == 4 {
			quadFrac = frac
		}
		if frac > maxFrac {
			maxFrac = frac
		}
		tb.AddRow(
			fmt.Sprintf("%d", sp.Cores), fmt.Sprintf("%d", sp.Threads),
			fmtDur(pt.Sense), fmtDur(pt.Predict), fmtDur(pt.Optimize), fmtDur(pt.Migrate),
			fmtDur(pt.Total()), fmt.Sprintf("%.3f%%", 100*frac))
	}
	tb.AddNote("migrate* is modelled at %dus per moved thread, 50%% of threads moving (paper's assumption)", core.MigrationCostNs/1000)
	tb.AddNote("paper: overhead negligible (<1%% of the 60ms epoch) for 2-8 cores")
	return &Result{
		ID:       "F7",
		Title:    "Per-phase overhead and scalability",
		Table:    tb,
		Headline: map[string]float64{"quad-core-epoch-fraction": quadFrac, "max-epoch-fraction": maxFrac},
		PaperClaim: "for 2-8 cores the average overhead is negligible w.r.t. the " +
			"60ms epoch (less than 1%)",
	}, nil
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
