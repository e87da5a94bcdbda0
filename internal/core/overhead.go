package core

import (
	"fmt"
	"math"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/powermodel"
	"smartbalance/internal/rng"
	"smartbalance/internal/workload"
)

// This file supports the paper's Fig. 7 overhead and scalability
// analysis: per-phase runtime of SmartBalance measured on the 4-core
// platform and extrapolated from 2 to 128 cores with 4 to 256 threads.
// Here every scale is measured directly by driving the real phase
// implementations on synthetic inputs of that size.

// MigrationCostNs is the modelled cost of migrating one thread
// (runqueue manipulation plus cold-cache refill), charged for the
// paper's assumption that 50% of threads migrate per epoch. Migration
// cost is a property of the target hardware, not of the host running
// this reproduction, so it is modelled rather than timed.
const MigrationCostNs = 30_000

// ScalePoint is one (cores, threads) configuration of the scalability
// sweep.
type ScalePoint struct {
	Cores   int
	Threads int
}

// ScalabilityScenarios returns the paper's Fig. 7(b) sweep: 2 to 128
// cores with 2 threads per core.
func ScalabilityScenarios() []ScalePoint {
	var out []ScalePoint
	for n := 2; n <= 128; n *= 2 {
		out = append(out, ScalePoint{Cores: n, Threads: 2 * n})
	}
	return out
}

// PhaseTimes is the per-phase overhead of one SmartBalance epoch at a
// given scale.
type PhaseTimes struct {
	Scale    ScalePoint
	MaxIter  int
	Sense    time.Duration
	Predict  time.Duration
	Optimize time.Duration
	// Migrate is modelled (50% of threads x MigrationCostNs).
	Migrate time.Duration
}

// Total returns the summed per-epoch overhead.
func (p PhaseTimes) Total() time.Duration {
	return p.Sense + p.Predict + p.Optimize + p.Migrate
}

// FractionOfEpoch returns the overhead relative to an epoch length.
func (p PhaseTimes) FractionOfEpoch(epochNs int64) float64 {
	if epochNs <= 0 {
		return 0
	}
	return float64(p.Total().Nanoseconds()) / float64(epochNs)
}

// MeasurePhases times one sense-predict-optimize pass of the real
// implementation at the given scale, using a trained predictor and a
// synthetic measurement population. With repeat > 1 each phase keeps
// its fastest pass: host interference (preemption, other processes)
// only ever adds time, so the minimum is the closest estimate of the
// controller's own cost. Timing uses the host clock; for
// deterministic output (tests, golden runs) use MeasurePhasesWithClock
// and a FakeClock.
func MeasurePhases(pred *Predictor, sp ScalePoint, repeat int, seed uint64) (PhaseTimes, error) {
	return MeasurePhasesWithClock(pred, sp, repeat, seed, RealClock())
}

// MeasurePhasesWithClock is MeasurePhases with an injectable time
// source, keeping host time out of the simulation packages (the
// wallclock invariant).
func MeasurePhasesWithClock(pred *Predictor, sp ScalePoint, repeat int, seed uint64, clk Clock) (PhaseTimes, error) {
	if sp.Cores < 1 || sp.Threads < 1 {
		return PhaseTimes{}, fmt.Errorf("core: invalid scale %+v", sp)
	}
	if repeat < 1 {
		repeat = 1
	}
	plat, err := arch.ScalingHMP(sp.Cores)
	if err != nil {
		return PhaseTimes{}, err
	}
	types := plat.Types
	q := len(types)
	pms := make([]*powermodel.CoreModel, q)
	for i := range types {
		pm, err := powermodel.NewCoreModel(&types[i])
		if err != nil {
			return PhaseTimes{}, err
		}
		pms[i] = pm
	}
	r := rng.New(seed)

	// Synthetic measured population: random training-space phases
	// profiled on random source types.
	phases := make([]workload.Phase, sp.Threads)
	srcs := make([]arch.CoreTypeID, sp.Threads)
	for i := range phases {
		for {
			phases[i] = randomPhase(r, i)
			if phases[i].Validate() == nil {
				break
			}
		}
		srcs[i] = arch.CoreTypeID(r.Intn(q))
	}

	const unset = time.Duration(math.MaxInt64)
	pt := PhaseTimes{
		Scale: sp, MaxIter: ScaledMaxIter(sp.Cores, sp.Threads),
		Sense: unset, Predict: unset, Optimize: unset,
	}
	for rep := 0; rep < repeat; rep++ {
		// ---- Sense: assemble measurements (per-thread aggregation). ----
		t0 := clk.Now()
		meas := make([]Measurement, sp.Threads)
		for i := range meas {
			meas[i] = ProfileMeasurement(&phases[i], types, srcs[i], pms[srcs[i]], 0, nil)
			meas[i].Util = 0.3 + 0.7*r.Float64()
		}
		pt.Sense = min(pt.Sense, sinceOn(clk, t0))

		// ---- Predict: fill S(k) and P(k). ----
		t1 := clk.Now()
		prob := &Problem{
			IPS:       make([][]float64, sp.Threads),
			Power:     make([][]float64, sp.Threads),
			Util:      make([]float64, sp.Threads),
			IdlePower: make([]float64, sp.Cores),
		}
		for j := 0; j < sp.Cores; j++ {
			prob.IdlePower[j] = pms[plat.TypeID(arch.CoreID(j))].SleepW()
		}
		for i := range meas {
			ipsRow := make([]float64, sp.Cores)
			powRow := make([]float64, sp.Cores)
			ipsByType := make([]float64, q)
			powByType := make([]float64, q)
			for tid := 0; tid < q; tid++ {
				ips, err := pred.PredictIPS(&meas[i], arch.CoreTypeID(tid))
				if err != nil {
					return PhaseTimes{}, err
				}
				pw, err := pred.PredictPower(&meas[i], arch.CoreTypeID(tid))
				if err != nil {
					return PhaseTimes{}, err
				}
				ipsByType[tid] = ips
				powByType[tid] = pw
			}
			for j := 0; j < sp.Cores; j++ {
				tid := plat.TypeID(arch.CoreID(j))
				ipsRow[j] = ipsByType[tid]
				powRow[j] = powByType[tid]
			}
			prob.IPS[i] = ipsRow
			prob.Power[i] = powRow
			prob.Util[i] = meas[i].Util
		}
		pt.Predict = min(pt.Predict, sinceOn(clk, t1))

		// ---- Optimize: Algorithm 1 at the scaled iteration budget. ----
		t2 := clk.Now()
		initial := make(Allocation, sp.Threads)
		for i := range initial {
			initial[i] = arch.CoreID(i % sp.Cores)
		}
		cfg := DefaultAnnealConfig()
		cfg.MaxIter = pt.MaxIter
		cfg.Seed = seed + uint64(rep)
		if _, err := Anneal(prob, initial, cfg); err != nil {
			return PhaseTimes{}, err
		}
		pt.Optimize = min(pt.Optimize, sinceOn(clk, t2))
	}
	// Migration: modelled, not host-timed (see MigrationCostNs).
	pt.Migrate = time.Duration(sp.Threads/2) * time.Duration(MigrationCostNs)
	return pt, nil
}
