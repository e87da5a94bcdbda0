package core

import (
	"errors"
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/powermodel"
	"smartbalance/internal/regress"
	"smartbalance/internal/rng"
	"smartbalance/internal/workload"
)

func trainedPredictor(t *testing.T) *Predictor {
	t.Helper()
	p, err := Train(arch.Table2Types(), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFeatureVectorShape(t *testing.T) {
	m := Measurement{IPC: 1.5, MissL1I: 0.01, Valid: true}
	x := Features(&m, 2.0)
	if len(x) != NumFeatures {
		t.Fatalf("feature vector has %d entries, want %d", len(x), NumFeatures)
	}
	if x[0] != 2.0 {
		t.Fatal("FR not first feature")
	}
	if x[NumFeatures-1] != 1 {
		t.Fatal("const not last feature")
	}
	if x[NumFeatures-2] != 1.5 {
		t.Fatal("ipc_src misplaced")
	}
	if len(FeatureNames()) != NumFeatures {
		t.Fatal("feature names out of sync")
	}
}

func TestNewPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(nil); err == nil {
		t.Fatal("empty type set accepted")
	}
	p, err := NewPredictor(arch.Table2Types())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTypes() != 4 {
		t.Fatalf("NumTypes = %d", p.NumTypes())
	}
	if p.Trained() {
		t.Fatal("fresh predictor claims trained")
	}
	if err := p.SetModel(1, 1, &regress.Model{Coef: make([]float64, NumFeatures)}); err == nil {
		t.Fatal("diagonal model accepted")
	}
	if err := p.SetModel(0, 1, &regress.Model{Coef: []float64{1}}); err == nil {
		t.Fatal("wrong-width model accepted")
	}
}

func TestTrainProducesFullPredictor(t *testing.T) {
	p := trainedPredictor(t)
	if !p.Trained() {
		t.Fatal("Train left gaps")
	}
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s == d {
				continue
			}
			m := p.Model(arch.CoreTypeID(s), arch.CoreTypeID(d))
			if m == nil {
				t.Fatalf("missing model %d->%d", s, d)
			}
			// Training uses relative-error weighting, so the mean
			// absolute percentage training error is the measure.
			// Upward predictions (small source core -> Huge) are
			// inherently lossy because the narrow core saturates the
			// ILP signal, so the per-pair bound is loose; the held-out
			// *average* is asserted tightly in
			// TestPredictionErrorMatchesPaperBallpark.
			if m.MeanAbsPct > 30 {
				t.Errorf("model %d->%d training MAPE = %.1f%%; predictor useless", s, d, m.MeanAbsPct)
			}
		}
	}
	// Power fits: positive slope (power rises with IPC).
	for tid := 0; tid < 4; tid++ {
		f := p.PowerFitFor(arch.CoreTypeID(tid))
		if f.Alpha1 <= 0 {
			t.Errorf("type %d power slope %g not positive", tid, f.Alpha1)
		}
		if f.Alpha0 <= 0 {
			t.Errorf("type %d power intercept %g not positive (leak+idle)", tid, f.Alpha0)
		}
	}
}

func TestPredictIPCWithinBounds(t *testing.T) {
	p := trainedPredictor(t)
	types := arch.Table2Types()
	phases := TrainingPhases(50, 99)
	pmH, _ := powermodel.NewCoreModel(&types[0])
	r := rng.New(3)
	for pi := range phases {
		m := ProfileMeasurement(&phases[pi], types, 0, pmH, 0, r)
		for d := 1; d < 4; d++ {
			ipc, err := p.PredictIPC(&m, arch.CoreTypeID(d))
			if err != nil {
				t.Fatal(err)
			}
			if ipc <= 0 || ipc > types[d].PeakIPC {
				t.Fatalf("predicted IPC %g outside (0, %g] for %s", ipc, types[d].PeakIPC, types[d].Name)
			}
		}
	}
}

func TestPredictSameTypeReturnsMeasurement(t *testing.T) {
	p := trainedPredictor(t)
	m := Measurement{SrcType: 2, IPC: 1.11, PowerW: 0.33, Valid: true}
	ipc, err := p.PredictIPC(&m, 2)
	if err != nil || ipc != 1.11 {
		t.Fatalf("same-type IPC = %g, err %v", ipc, err)
	}
	pw, err := p.PredictPower(&m, 2)
	if err != nil || pw != 0.33 {
		t.Fatalf("same-type power = %g, err %v", pw, err)
	}
}

func TestPredictInvalidMeasurementRejected(t *testing.T) {
	p := trainedPredictor(t)
	m := Measurement{SrcType: 0}
	if _, err := p.PredictIPC(&m, 1); err == nil {
		t.Fatal("invalid measurement accepted")
	}
	if _, err := p.PredictPower(&m, 1); err == nil {
		t.Fatal("invalid measurement accepted for power")
	}
}

func TestPredictUntrainedPairFails(t *testing.T) {
	p, _ := NewPredictor(arch.Table2Types())
	m := Measurement{SrcType: 0, IPC: 1, Valid: true}
	if _, err := p.PredictIPC(&m, 1); err == nil {
		t.Fatal("untrained pair predicted")
	}
}

func TestPredictionErrorMatchesPaperBallpark(t *testing.T) {
	// The paper reports ~4.2% performance and ~5% power prediction
	// error (Fig. 6). Exact numbers depend on their corpus; we require
	// the same order of magnitude: low single digits, certainly below
	// 15%, and above zero (a suspiciously perfect predictor would mean
	// the evaluation is circular).
	p := trainedPredictor(t)
	// Held-out set: jittered benchmark phases not used verbatim in
	// training (training used seed 1 workers; these use seed 7734).
	var held []workload.Phase
	for _, name := range workload.Benchmarks() {
		specs, err := workload.Benchmark(name, 2, 7734)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			held = append(held, specs[i].Phases...)
		}
	}
	perf, power, err := PredictionError(p, held, 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	if perf <= 0 || perf > 15 {
		t.Fatalf("performance prediction error %.2f%% outside (0, 15]", perf)
	}
	if power <= 0 || power > 15 {
		t.Fatalf("power prediction error %.2f%% outside (0, 15]", power)
	}
	t.Logf("held-out prediction error: perf %.2f%%, power %.2f%% (paper: 4.2%%, 5%%)", perf, power)
}

func TestPowerFitPredictClampsNegative(t *testing.T) {
	f := PowerFit{Alpha1: 1, Alpha0: -10}
	if f.Predict(1) != 0 {
		t.Fatal("negative power prediction not clamped")
	}
}

func TestTrainingPhasesCoverage(t *testing.T) {
	phases := TrainingPhases(100, 5)
	if len(phases) < 130 { // >= ~35 benchmark/IMB phases + 100 random
		t.Fatalf("corpus only %d phases", len(phases))
	}
	for i := range phases {
		if err := phases[i].Validate(); err != nil {
			t.Fatalf("phase %d invalid: %v", i, err)
		}
	}
	// Deterministic under seed.
	again := TrainingPhases(100, 5)
	if len(again) != len(phases) || again[len(again)-1].ILP != phases[len(phases)-1].ILP {
		t.Fatal("TrainingPhases not deterministic")
	}
}

func TestTrainDeterministic(t *testing.T) {
	a, err := Train(arch.Table2Types(), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(arch.Table2Types(), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	ma := a.Model(0, 1)
	mb := b.Model(0, 1)
	for i := range ma.Coef {
		if ma.Coef[i] != mb.Coef[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestTrainBigLittle(t *testing.T) {
	// The predictor must also train on the two-type GTS platform.
	p, err := Train(arch.BigLittleTypes(), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Trained() {
		t.Fatal("big.LITTLE predictor incomplete")
	}
}

// TestTrainDesignIsRankDeficient pins the premise for fitting Θ with
// regress.Ridge alone: FR is constant within a pair, so in every row of
// every pair's weighted design the FR column is fr times the const
// column, bit for bit, and AᵀA is singular without the ridge term.
func TestTrainDesignIsRankDeficient(t *testing.T) {
	for _, types := range [][]arch.CoreType{arch.Table2Types(), arch.BigLittleTypes()} {
		cfg := DefaultTrainConfig()
		cfg.Seed = 1
		obs, err := profileCorpus(types, cfg)
		if err != nil {
			t.Fatal(err)
		}
		design := newPairDesign(len(obs[0]))
		for s := range types {
			for d := range types {
				if s == d {
					continue
				}
				fr := types[d].FreqMHz / types[s].FreqMHz
				design.fill(obs[s], obs[d], fr)
				for i, row := range design.rows {
					if math.Float64bits(row[0]) != math.Float64bits(fr*row[NumFeatures-1]) {
						t.Fatalf("%s->%s row %d: FR %g is not fr=%g times const %g",
							types[s].Name, types[d].Name, i, row[0], fr, row[NumFeatures-1])
					}
				}
			}
		}
	}
}

func BenchmarkTrainQuad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Train(arch.Table2Types(), DefaultTrainConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRankDeficientCorpusNeverYieldsSilentNaN(t *testing.T) {
	// A degenerate training corpus — every sample identical, so the
	// design matrix has rank 1 against NumFeatures columns — must
	// produce either an explicit fit error or finite, usable
	// coefficients (the ridge term); never NaN that flows silently
	// into predictions.
	row := []float64{1.2, 0.01, 0.02, 0.3, 0.1, 0.05, 0.001, 0.002, 1.5, 1}
	rows := make([][]float64, NumFeatures+2)
	y := make([]float64, len(rows))
	for i := range rows {
		rows[i] = row
		y[i] = 0.8
	}
	model, err := regress.Ridge(rows, y)
	if err != nil {
		return // explicit rejection is acceptable
	}
	for i, c := range model.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("rank-deficient fit produced non-finite coef[%d] = %g", i, c)
		}
	}
	types := arch.Table2Types()
	p, err := NewPredictor(types)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetModel(0, 1, model); err != nil {
		t.Fatal(err)
	}
	m := Measurement{SrcType: 0, IPC: 1.5, PowerW: 1.0, Valid: true}
	ipc, err := p.PredictIPC(&m, 1)
	if err != nil {
		t.Fatalf("finite rank-deficient model rejected: %v", err)
	}
	if !(ipc > 0 && ipc <= types[1].PeakIPC) {
		t.Fatalf("prediction %g outside (0, %g]", ipc, types[1].PeakIPC)
	}
}

func TestPredictRejectsNonFiniteModelOutputs(t *testing.T) {
	// NaN coefficients — the signature of a corpus poisoned by corrupt
	// measurements — must surface as ErrNotUsable, not as a NaN that
	// survives the clamps (NaN fails both < and > comparisons).
	types := arch.Table2Types()
	p, err := NewPredictor(types)
	if err != nil {
		t.Fatal(err)
	}
	bad := &regress.Model{Coef: make([]float64, NumFeatures)}
	bad.Coef[0] = math.NaN()
	if err := p.SetModel(0, 1, bad); err != nil {
		t.Fatal(err)
	}
	p.SetPowerFit(1, PowerFit{Alpha1: math.NaN(), Alpha0: 1})
	m := Measurement{SrcType: 0, IPC: 1.5, PowerW: 1.0, Valid: true}
	if _, err := p.PredictIPC(&m, 1); !errors.Is(err, ErrNotUsable) {
		t.Fatalf("NaN model output: want ErrNotUsable, got %v", err)
	}
	if _, err := p.PredictPower(&m, 1); !errors.Is(err, ErrNotUsable) {
		t.Fatalf("NaN power output: want ErrNotUsable, got %v", err)
	}
	// Non-finite measured values on the same-type path are rejected too.
	inf := Measurement{SrcType: 1, IPC: math.Inf(1), PowerW: math.NaN(), Valid: true}
	if _, err := p.PredictIPC(&inf, 1); !errors.Is(err, ErrNotUsable) {
		t.Fatalf("Inf measured ipc: want ErrNotUsable, got %v", err)
	}
	if _, err := p.PredictPower(&inf, 1); !errors.Is(err, ErrNotUsable) {
		t.Fatalf("NaN measured power: want ErrNotUsable, got %v", err)
	}
}

func TestPredictPowerClampedToPeak(t *testing.T) {
	types := arch.Table2Types()
	p, err := NewPredictor(types)
	if err != nil {
		t.Fatal(err)
	}
	// A wildly optimistic (but finite) power fit is clamped to the
	// destination type's Table 2 peak-power anchor.
	ident := &regress.Model{Coef: make([]float64, NumFeatures)}
	ident.Coef[NumFeatures-2] = 1 // ipc_src passthrough
	if err := p.SetModel(0, 1, ident); err != nil {
		t.Fatal(err)
	}
	p.SetPowerFit(1, PowerFit{Alpha1: 1e6, Alpha0: 0})
	m := Measurement{SrcType: 0, IPC: 1.5, PowerW: 1.0, Valid: true}
	pw, err := p.PredictPower(&m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pw != types[1].PeakPowerW {
		t.Fatalf("runaway power fit predicted %g, want clamp at %g", pw, types[1].PeakPowerW)
	}
}
