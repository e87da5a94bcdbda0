package core

import (
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/perfmodel"
	"smartbalance/internal/powermodel"
	"smartbalance/internal/regress"
	"smartbalance/internal/rng"
	"smartbalance/internal/workload"
)

// This file implements the paper's offline profiling step: "In order to
// obtain Θ, we employ standard linear regression using the least
// squares method" and "α0, α1 ... are obtained from offline profiling".
// Profiling here runs workload phases through the analytical
// performance/power models on every core type — the stand-in for
// executing the training benchmarks on every core of the Gem5 platform.

// TrainingPhases assembles the profiling corpus. The paper trains on
// "offline profiling of PARSEC benchmarks", so the corpus is dominated
// by jittered variants of the benchmark phases (several profiled
// workers per benchmark), plus the IMB configurations and nRandom
// random (valid) phases to regularise the space between benchmarks.
func TrainingPhases(nRandom int, seed uint64) []workload.Phase {
	var phases []workload.Phase
	for variant := 0; variant < 6; variant++ {
		vseed := seed + uint64(variant)*0x51ED
		for _, name := range workload.Benchmarks() {
			specs, err := workload.Benchmark(name, 1, vseed)
			if err != nil {
				continue // unreachable: Benchmarks() names are valid
			}
			phases = append(phases, specs[0].Phases...)
		}
		for _, cfg := range workload.IMBConfigs() {
			specs, err := workload.IMB(cfg[0], cfg[1], 1, vseed)
			if err != nil {
				continue
			}
			phases = append(phases, specs[0].Phases...)
		}
	}
	r := rng.New(seed ^ 0x7A1E)
	for i := 0; i < nRandom; i++ {
		ph := randomPhase(r, i)
		if ph.Validate() == nil {
			phases = append(phases, ph)
		}
	}
	return phases
}

// randomPhase draws a phase from the model's valid attribute space.
func randomPhase(r *rng.Rand, i int) workload.Phase {
	return workload.Phase{
		Name:          fmt.Sprintf("rand%d", i),
		Instructions:  1e6,
		ILP:           0.8 + r.Float64()*4.5,
		MemShare:      0.05 + r.Float64()*0.5,
		BranchShare:   0.03 + r.Float64()*0.25,
		WorkingSetIKB: 2 + r.Float64()*60,
		WorkingSetDKB: 8 + r.Float64()*3000,
		BranchEntropy: r.Float64(),
		MLP:           1 + r.Float64()*4,
		TLBPressureI:  r.Float64() * 0.5,
		TLBPressureD:  r.Float64(),
	}
}

// ProfileMeasurement produces the steady-state measurement the sensors
// would report for a phase executing on a core of type src — the
// profiling-run observation. sensorSigma adds multiplicative Gaussian
// noise to the power reading (0 disables).
func ProfileMeasurement(ph *workload.Phase, types []arch.CoreType, src arch.CoreTypeID,
	pm *powermodel.CoreModel, sensorSigma float64, r *rng.Rand) Measurement {
	met := perfmodel.Evaluate(ph, &types[src])
	power := pm.BusyPower(met.IPC, ph)
	if sensorSigma > 0 && r != nil {
		power *= 1 + sensorSigma*r.NormFloat64()
		if power < 0 {
			power = 0
		}
	}
	return Measurement{
		Core:        -1, // profiling measurement, not tied to a physical core
		SrcType:     src,
		IPC:         met.IPC,
		IPS:         met.IPS(&types[src]),
		PowerW:      power,
		MissL1I:     met.MissRateL1I,
		MissL1D:     met.MissRateL1D,
		MemShare:    ph.MemShare,
		BranchShare: ph.BranchShare,
		Mispredict:  met.MispredictRate,
		MissITLB:    met.MissRateITLB,
		MissDTLB:    met.MissRateDTLB,
		Valid:       true,
	}
}

// TrainConfig parameterises offline training.
type TrainConfig struct {
	// RandomPhases is the number of synthetic phases added to the
	// benchmark-derived corpus.
	RandomPhases int
	// SensorSigma is the relative power-sensor noise applied to the
	// profiling observations.
	SensorSigma float64
	// Seed drives corpus generation and noise.
	Seed uint64
}

// DefaultTrainConfig mirrors the reproduction's standard setup.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{RandomPhases: 80, SensorSigma: 0.02, Seed: 1}
}

// Train fits every off-diagonal Θ row and every per-type power fit over
// the profiling corpus, returning the trained predictor.
func Train(types []arch.CoreType, cfg TrainConfig) (*Predictor, error) {
	p, err := NewPredictor(types)
	if err != nil {
		return nil, err
	}
	obs, err := profileCorpus(types, cfg)
	if err != nil {
		return nil, err
	}

	// Θ rows: for each ordered (src, dst) pair, regress dst IPC on the
	// src-side features. FR is constant within a pair, so the FR and
	// const columns are proportional and every pair's design is
	// rank-deficient by construction; regress.Ridge's ridge term makes
	// it solvable.
	design := newPairDesign(len(obs[0]))
	for s := range types {
		for d := range types {
			if s == d {
				continue
			}
			design.fill(obs[s], obs[d], types[d].FreqMHz/types[s].FreqMHz)
			model, err := regress.Ridge(design.rows, design.targets)
			if err != nil {
				return nil, fmt.Errorf("core: fit %s->%s: %w", types[s].Name, types[d].Name, err)
			}
			if err := p.SetModel(arch.CoreTypeID(s), arch.CoreTypeID(d), model); err != nil {
				return nil, err
			}
		}
	}

	// Eq. (9) power fits: per destination type, power ~ a1*ipc + a0.
	for tid := range types {
		xs := make([]float64, len(obs[tid]))
		ys := make([]float64, len(obs[tid]))
		for pi := range obs[tid] {
			xs[pi] = obs[tid][pi].IPC
			ys[pi] = obs[tid][pi].PowerW
		}
		a1, a0, err := regress.SimpleFit(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("core: power fit for %s: %w", types[tid].Name, err)
		}
		p.SetPowerFit(arch.CoreTypeID(tid), PowerFit{Alpha1: a1, Alpha0: a0})
	}
	return p, nil
}

// profileCorpus profiles every corpus phase on every core type once:
// obs[type][phase].
func profileCorpus(types []arch.CoreType, cfg TrainConfig) ([][]Measurement, error) {
	phases := TrainingPhases(cfg.RandomPhases, cfg.Seed)
	if len(phases) < NumFeatures {
		return nil, fmt.Errorf("core: corpus of %d phases too small", len(phases))
	}
	pms := make([]*powermodel.CoreModel, len(types))
	for i := range types {
		pm, err := powermodel.NewCoreModel(&types[i])
		if err != nil {
			return nil, err
		}
		pms[i] = pm
	}
	r := rng.New(cfg.Seed ^ 0x5EED)
	obs := make([][]Measurement, len(types))
	for tid := range types {
		obs[tid] = make([]Measurement, len(phases))
		for pi := range phases {
			obs[tid][pi] = ProfileMeasurement(&phases[pi], types, arch.CoreTypeID(tid), pms[tid], cfg.SensorSigma, r)
		}
	}
	return obs, nil
}

// pairDesign is one (src, dst) pair's weighted regression design, one
// row per corpus phase, over a single backing array that Train reuses
// for every pair.
type pairDesign struct {
	rows    [][]float64
	targets []float64
}

func newPairDesign(n int) *pairDesign {
	flat := make([]float64, n*NumFeatures)
	pd := &pairDesign{rows: make([][]float64, n), targets: make([]float64, n)}
	for i := range pd.rows {
		pd.rows[i] = flat[i*NumFeatures : (i+1)*NumFeatures]
	}
	return pd
}

// fill writes the design that regresses the IPCs measured on the
// destination type (dst) on the features measured on the source type
// (src), for frequency ratio fr = F_dst / F_src. Relative-error
// weighting: Fig. 6 reports *percentage* error, so each sample is
// scaled by 1/target — weighted least squares minimising the relative
// residual.
func (pd *pairDesign) fill(src, dst []Measurement, fr float64) {
	for pi, row := range pd.rows {
		x := (*[NumFeatures]float64)(row)
		featuresInto(x, &src[pi], fr)
		y := dst[pi].IPC
		w := 1.0
		if y > 0.05 {
			w = 1 / y
		}
		for fi := range x {
			x[fi] *= w
		}
		pd.targets[pi] = y * w
	}
}

// PredictionError quantifies the predictor's held-out accuracy (the
// paper's Fig. 6 metric): mean absolute percentage error of IPC and
// power predictions across all ordered type pairs for the given phases.
func PredictionError(p *Predictor, phases []workload.Phase, sensorSigma float64, seed uint64) (perfPct, powerPct float64, err error) {
	types := p.types
	pms := make([]*powermodel.CoreModel, len(types))
	for i := range types {
		pm, e := powermodel.NewCoreModel(&types[i])
		if e != nil {
			return 0, 0, e
		}
		pms[i] = pm
	}
	r := rng.New(seed ^ 0xE7A1)
	var sumPerf, sumPower float64
	n := 0
	for pi := range phases {
		for s := range types {
			src := arch.CoreTypeID(s)
			m := ProfileMeasurement(&phases[pi], types, src, pms[s], sensorSigma, r)
			for d := range types {
				if s == d {
					continue
				}
				dst := arch.CoreTypeID(d)
				truth := ProfileMeasurement(&phases[pi], types, dst, pms[d], 0, nil)
				ipcHat, e := p.PredictIPC(&m, dst)
				if e != nil {
					return 0, 0, e
				}
				pHat, e := p.PredictPower(&m, dst)
				if e != nil {
					return 0, 0, e
				}
				if truth.IPC > 1e-9 {
					sumPerf += abs(ipcHat-truth.IPC) / truth.IPC
				}
				if truth.PowerW > 1e-9 {
					sumPower += abs(pHat-truth.PowerW) / truth.PowerW
				}
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("core: empty evaluation set")
	}
	return 100 * sumPerf / float64(n), 100 * sumPower / float64(n), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
