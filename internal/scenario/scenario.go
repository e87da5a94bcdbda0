// Package scenario is the one vocabulary every front end uses to turn
// a node scenario's names into a run. sbsim, the sweep engine (and
// through it sbsweep and sbhunt), the fleet and the experiment runners
// resolve platform, workload and balancer names here, share one
// memoised predictor per core-type set and seed, and run a resolved
// scenario through Run, the single build → run → check sequence.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"smartbalance/internal/arch"
	"smartbalance/internal/balancer"
	"smartbalance/internal/contention"
	"smartbalance/internal/core"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/telemetry"
	"smartbalance/internal/workload"
)

// Platform resolves a platform name: quad | biglittle | scaling:<n>.
func Platform(name string) (*arch.Platform, error) {
	switch {
	case name == "quad":
		return arch.QuadHMP(), nil
	case name == "biglittle":
		return arch.OctaBigLittle(), nil
	case strings.HasPrefix(name, "scaling:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "scaling:"))
		if err != nil {
			return nil, fmt.Errorf("scenario: bad scaling core count in %q: %v", name, err)
		}
		return arch.ScalingHMP(n)
	}
	return nil, fmt.Errorf("scenario: unknown platform %q (quad | biglittle | scaling:<n>)", name)
}

// Workload resolves a workload name into thread specs: a benchmark
// name, "MixN", "imb:<T><I>" (imb:HTMI or the short imb:HM), or a
// parametric "synth:key=value,..." spec (workload.ParseSynth).
func Workload(name string, threads int, seed uint64) ([]workload.ThreadSpec, error) {
	if strings.HasPrefix(name, workload.SynthPrefix) {
		return workload.Synth(name, threads, seed)
	}
	if code, ok := strings.CutPrefix(name, "imb:"); ok {
		code = strings.ReplaceAll(strings.ReplaceAll(code, "T", ""), "I", "")
		if len(code) != 2 {
			return nil, fmt.Errorf("scenario: bad IMB code %q (want e.g. imb:HTMI)", name)
		}
		tl, err := level(code[:1])
		if err != nil {
			return nil, err
		}
		il, err := level(code[1:])
		if err != nil {
			return nil, err
		}
		return workload.IMB(tl, il, threads, seed)
	}
	for _, m := range workload.MixNames() {
		if m == name {
			return workload.Mix(name, threads, seed)
		}
	}
	return workload.Benchmark(name, threads, seed)
}

// level resolves an IMB level letter.
func level(s string) (workload.Level, error) {
	switch strings.ToUpper(s) {
	case "H":
		return workload.High, nil
	case "M":
		return workload.Medium, nil
	case "L":
		return workload.Low, nil
	}
	return 0, fmt.Errorf("scenario: unknown IMB level %q (H | M | L)", s)
}

// Balancer resolves a balancer name for plat: smartbalance | vanilla |
// gts | iks | pinned. SmartBalance runs the default controller on the
// predictor trained with trainSeed, its annealer seeded with
// annealSeed.
func Balancer(name string, plat *arch.Platform, trainSeed, annealSeed uint64) (kernel.Balancer, error) {
	switch name {
	case "smartbalance":
		pred, err := Predictor(plat.Types, trainSeed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Anneal.Seed = annealSeed
		return core.New(pred, cfg)
	case "vanilla":
		return balancer.Vanilla{}, nil
	case "gts":
		return balancer.NewGTS(plat)
	case "iks":
		return balancer.NewIKS(plat)
	case "pinned":
		return balancer.Pinned{}, nil
	}
	return nil, fmt.Errorf("scenario: unknown balancer %q (smartbalance | vanilla | gts | iks | pinned)", name)
}

// predictorEntry is one memoised training run.
type predictorEntry struct {
	once sync.Once
	pred *core.Predictor
	err  error
}

// predictorCache memoises trained predictors per (core-type set,
// seed). core.Train is a pure function of both, so memoisation cannot
// change any result: it only stops concurrent sweep scenarios,
// same-platform fleet nodes and experiment runners from redoing one
// identical fit.
var predictorCache sync.Map

// Predictor trains (or reuses) the predictor for types under
// core.DefaultTrainConfig with the given seed. Predictors are read-only
// once trained, so callers may share the result across controllers.
func Predictor(types []arch.CoreType, seed uint64) (*core.Predictor, error) {
	// The key is every type's full value, in order: CoreTypeID is
	// positional, so the same set in another order is another
	// predictor, and two sets that share names but differ in a
	// parameter never share a fit.
	key := fmt.Sprintf("%v|%d", types, seed)
	v, _ := predictorCache.LoadOrStore(key, &predictorEntry{})
	e := v.(*predictorEntry)
	e.once.Do(func() {
		tc := core.DefaultTrainConfig()
		tc.Seed = seed
		e.pred, e.err = core.Train(types, tc)
	})
	return e.pred, e.err
}

// Run is the one build → run → check sequence for a resolved node
// scenario. It builds the machine from plat and mopts; when aware is
// set it couples bal to the machine's contention model (the A14 split:
// a blind arm runs the same controller on the same contended machine
// without the interference term); it builds the kernel from cfg,
// attaches tel when non-nil, spawns specs, runs for durNs, checks the
// kernel's invariants and returns the run statistics.
func Run(plat *arch.Platform, bal kernel.Balancer, specs []workload.ThreadSpec, durNs int64,
	cfg kernel.Config, mopts machine.Options, aware bool, tel *telemetry.Collector) (*kernel.RunStats, error) {
	m, err := machine.NewWithOptions(plat, mopts)
	if err != nil {
		return nil, err
	}
	if aware {
		if sink, ok := bal.(interface {
			SetContention(*contention.Model)
		}); ok {
			sink.SetContention(m.Contention())
		}
	}
	k, err := kernel.New(m, bal, cfg)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		telemetry.Attach(k, tel)
	}
	for i := range specs {
		if _, err := k.Spawn(&specs[i]); err != nil {
			return nil, err
		}
	}
	if err := k.Run(durNs); err != nil {
		return nil, err
	}
	if err := k.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("scenario: post-run invariant violation: %w", err)
	}
	return k.Stats(), nil
}
