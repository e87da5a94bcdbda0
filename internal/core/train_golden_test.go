package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/regress"
)

// trainGoldenPath pins trained predictors bit for bit. Rewrite it with
//
//	go test ./internal/core -run TestTrainGolden -update
//
// only for an intended change of the features, the corpus or the fit;
// a speed change to training must replay the committed file.
const trainGoldenPath = "testdata/train_golden.json"

// goldenModel is one Θ row: every coefficient and the training MAPE as
// float bits, plus the sample count.
type goldenModel struct {
	Coef       []string `json:"coef"`
	MeanAbsPct string   `json:"mean_abs_pct"`
	N          int      `json:"n"`
}

// goldenPredictor is one trained predictor: its Θ rows keyed
// "src/dst" and its per-type Eq. (9) power fits as float bits.
type goldenPredictor struct {
	Theta map[string]goldenModel `json:"theta"`
	Power [][2]string            `json:"power"`
}

func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func goldenModelOf(m *regress.Model) goldenModel {
	g := goldenModel{
		Coef:       make([]string, len(m.Coef)),
		MeanAbsPct: floatBits(m.MeanAbsPct),
		N:          m.N,
	}
	for i, c := range m.Coef {
		g.Coef[i] = floatBits(c)
	}
	return g
}

func goldenPredictorOf(p *Predictor) goldenPredictor {
	g := goldenPredictor{Theta: make(map[string]goldenModel)}
	for s := range p.types {
		for d := range p.types {
			if s == d {
				continue
			}
			key := p.types[s].Name + "/" + p.types[d].Name
			g.Theta[key] = goldenModelOf(p.Model(arch.CoreTypeID(s), arch.CoreTypeID(d)))
		}
	}
	for tid := range p.types {
		f := p.PowerFitFor(arch.CoreTypeID(tid))
		g.Power = append(g.Power, [2]string{floatBits(f.Alpha1), floatBits(f.Alpha0)})
	}
	return g
}

// trainGoldenCase is one Train input.
type trainGoldenCase struct {
	types []arch.CoreType
	cfg   TrainConfig
}

// trainGoldenCases crosses both core-type sets with three seeds and
// three corpus shapes: the default, the benchmark phases alone without
// sensor noise, and a large random corpus with heavy noise.
func trainGoldenCases() map[string]trainGoldenCase {
	cases := make(map[string]trainGoldenCase)
	typeSets := []struct {
		name  string
		types func() []arch.CoreType
	}{{"table2", arch.Table2Types}, {"biglittle", arch.BigLittleTypes}}
	shapes := []struct {
		name string
		cfg  TrainConfig
	}{
		{"default", DefaultTrainConfig()},
		{"bench-only", TrainConfig{RandomPhases: 0, SensorSigma: 0}},
		{"rand300-noisy", TrainConfig{RandomPhases: 300, SensorSigma: 0.1}},
	}
	for _, ts := range typeSets {
		for _, seed := range []uint64{1, 7, 1234} {
			for _, sh := range shapes {
				cfg := sh.cfg
				cfg.Seed = seed
				cases[fmt.Sprintf("%s-%s-s%d", ts.name, sh.name, seed)] = trainGoldenCase{ts.types(), cfg}
			}
		}
	}
	return cases
}

// TestTrainGolden replays committed trained predictors bit for bit:
// every Θ coefficient, training MAPE and sample count, and every power
// fit.
func TestTrainGolden(t *testing.T) {
	cases := trainGoldenCases()
	got := make(map[string]goldenPredictor, len(cases))
	for name, c := range cases {
		p, err := Train(c.types, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = goldenPredictorOf(p)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(trainGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want map[string]goldenPredictor
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d cases, table has %d", len(want), len(cases))
	}
	for name := range cases {
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: missing from golden file", name)
		}
		if g := got[name]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s: trained predictor drifted\n got %+v\nwant %+v", name, g, w)
		}
	}
}
