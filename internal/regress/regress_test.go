package regress

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"smartbalance/internal/mat"
	"smartbalance/internal/rng"
)

func TestFitRecoversExactLinearModel(t *testing.T) {
	// y = 3*x1 - 2*x2 + 0.5 with a constant-1 feature.
	r := rng.New(1)
	var rows [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x1 := r.Float64() * 10
		x2 := r.Float64() * 10
		rows = append(rows, []float64{x1, x2, 1})
		y = append(y, 3*x1-2*x2+0.5)
	}
	m, err := Fit(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 0.5}
	for i, w := range want {
		if math.Abs(m.Coef[i]-w) > 1e-9 {
			t.Fatalf("coef[%d] = %g, want %g", i, m.Coef[i], w)
		}
	}
	if m.R2 < 0.999999 {
		t.Fatalf("R2 = %g on noise-free data", m.R2)
	}
	if m.RMSE > 1e-9 {
		t.Fatalf("RMSE = %g on noise-free data", m.RMSE)
	}
}

func TestFitWithNoiseIsUnbiased(t *testing.T) {
	r := rng.New(2)
	var rows [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		x := r.Float64() * 4
		rows = append(rows, []float64{x, 1})
		y = append(y, 2.5*x+1+r.NormFloat64()*0.1)
	}
	m, err := Fit(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2.5) > 0.02 || math.Abs(m.Coef[1]-1) > 0.03 {
		t.Fatalf("noisy fit coef = %v", m.Coef)
	}
	if m.R2 < 0.98 {
		t.Fatalf("R2 = %g", m.R2)
	}
}

func TestFitRejectsBadData(t *testing.T) {
	for name, fit := range map[string]func([][]float64, []float64) (*Model, error){"Fit": Fit, "Ridge": Ridge} {
		if _, err := fit(nil, nil); err == nil {
			t.Fatalf("%s: empty data accepted", name)
		}
		if _, err := fit([][]float64{{1, 2}}, []float64{1}); err == nil {
			t.Fatalf("%s: fewer samples than features accepted", name)
		}
		if _, err := fit([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
			t.Fatalf("%s: ragged rows accepted", name)
		}
		if _, err := fit([][]float64{{1}, {2}}, []float64{1}); err == nil {
			t.Fatalf("%s: length mismatch accepted", name)
		}
	}
}

func TestFitCollinearFallsBackToRidge(t *testing.T) {
	// Feature 2 is identically zero (like Table 4's itlb column for Big
	// sources); QR reports singular and the ridge path must kick in.
	r := rng.New(3)
	var rows [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		x := r.Float64() * 5
		rows = append(rows, []float64{x, 0, 1})
		y = append(y, 4*x+2)
	}
	m, err := Fit(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-4) > 1e-3 || math.Abs(m.Coef[2]-2) > 1e-2 {
		t.Fatalf("ridge fallback coef = %v", m.Coef)
	}
	if math.Abs(m.Predict([]float64{2, 0, 1})-10) > 0.05 {
		t.Fatalf("ridge prediction off: %g", m.Predict([]float64{2, 0, 1}))
	}
}

// randomEntry draws a design entry that is exactly +0 or −0 one time
// in five each, and otherwise a signed magnitude from 1e-3 to 1e3.
func randomEntry(r *rng.Rand) float64 {
	switch u := r.Float64(); {
	case u < 0.2:
		return 0
	case u < 0.4:
		return math.Copysign(0, -1)
	default:
		v := math.Pow(10, -3+6*r.Float64())
		if r.Float64() < 0.5 {
			v = -v
		}
		return v
	}
}

// TestRidgeMatchesNormalEquationsReference checks Ridge's one-pass Gram
// against the textbook construction (AᵀA through an explicit transpose
// and mat.Mul, Aᵀy through MulVec, λ on the diagonal, mat.Solve) bit
// for bit, coefficients and statistics, on random designs with exact
// zeros, −0, zero rows, zero columns and magnitudes from 1e-3 to 1e3.
func TestRidgeMatchesNormalEquationsReference(t *testing.T) {
	r := rng.New(25)
	for trial := 0; trial < 3000; trial++ {
		p := 1 + r.Intn(12)
		n := p + r.Intn(2*p+1)
		zeroCol := make([]bool, p)
		for j := range zeroCol {
			zeroCol[j] = r.Float64() < 0.1
		}
		rows := make([][]float64, n)
		y := make([]float64, n)
		for i := range rows {
			rows[i] = make([]float64, p)
			y[i] = randomEntry(r)
			if r.Float64() < 0.1 {
				continue // an all-zero row
			}
			for j := range rows[i] {
				if !zeroCol[j] {
					rows[i][j] = randomEntry(r)
				}
			}
		}

		a := mat.FromRows(rows)
		at := a.T()
		ata, err := mat.Mul(at, a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p; i++ {
			ata.Set(i, i, ata.At(i, i)+lambda)
		}
		aty, err := at.MulVec(y)
		if err != nil {
			t.Fatal(err)
		}
		coef, refErr := mat.Solve(ata, aty)

		got, err := Ridge(rows, y)
		if refErr != nil {
			if !errors.Is(err, refErr) {
				t.Fatalf("trial %d: reference failed with %v, Ridge returned %v", trial, refErr, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := &Model{Coef: coef, N: n}
		want.computeStats(rows, y)
		same := got.N == want.N &&
			math.Float64bits(got.R2) == math.Float64bits(want.R2) &&
			math.Float64bits(got.RMSE) == math.Float64bits(want.RMSE) &&
			math.Float64bits(got.MeanAbsPct) == math.Float64bits(want.MeanAbsPct)
		for j := range coef {
			same = same && math.Float64bits(got.Coef[j]) == math.Float64bits(coef[j])
		}
		if !same {
			t.Fatalf("trial %d (%dx%d): Ridge %+v, reference %+v", trial, n, p, got, want)
		}
	}
}

func TestEvaluateMAPE(t *testing.T) {
	m := &Model{Coef: []float64{2, 0}}
	rows := [][]float64{{1, 1}, {2, 1}, {3, 1}}
	y := []float64{2.2, 3.6, 6.6} // errors: +10%, -10%, +10% vs predictions 2,4,6
	mape, err := m.Evaluate(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	// |2-2.2|/2.2 + |4-3.6|/3.6 + |6-6.6|/6.6 ≈ 0.0909+0.1111+0.0909
	want := 100 * (0.2/2.2 + 0.4/3.6 + 0.6/6.6) / 3
	if math.Abs(mape-want) > 1e-9 {
		t.Fatalf("MAPE = %g, want %g", mape, want)
	}
}

func TestEvaluateSkipsNearZeroTargets(t *testing.T) {
	m := &Model{Coef: []float64{1}}
	if _, err := m.Evaluate([][]float64{{1}}, []float64{0}); err == nil {
		t.Fatal("all-zero targets should be ErrBadData")
	}
}

func TestEvaluateErrors(t *testing.T) {
	m := &Model{Coef: []float64{1, 2}}
	if _, err := m.Evaluate(nil, nil); err == nil {
		t.Fatal("empty eval set accepted")
	}
	if _, err := m.Evaluate([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("feature-width mismatch accepted")
	}
}

func TestSimpleFitKnown(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	a1, a0, err := SimpleFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1-2) > 1e-12 || math.Abs(a0-1) > 1e-12 {
		t.Fatalf("SimpleFit = (%g, %g)", a1, a0)
	}
}

func TestSimpleFitDegenerate(t *testing.T) {
	if _, _, err := SimpleFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, _, err := SimpleFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
	if _, _, err := SimpleFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSimpleFitProperty(t *testing.T) {
	// For any true (a1, a0) and >= 3 distinct points, recovery is exact.
	f := func(a1i, a0i int8) bool {
		a1 := float64(a1i) / 8
		a0 := float64(a0i) / 8
		x := []float64{0, 1, 2, 5, 9}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = a1*x[i] + a0
		}
		g1, g0, err := SimpleFit(x, y)
		if err != nil {
			return false
		}
		return math.Abs(g1-a1) < 1e-9 && math.Abs(g0-a0) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitPredictConsistency(t *testing.T) {
	// Predict on a training row should equal the fitted value used in
	// the stats computation (internal consistency).
	rows := [][]float64{{1, 1}, {2, 1}, {4, 1}, {8, 1}}
	y := []float64{3, 5, 9, 17}
	m, err := Fit(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if math.Abs(m.Predict(r)-y[i]) > 1e-9 {
			t.Fatalf("predict(%v) = %g, want %g", r, m.Predict(r), y[i])
		}
	}
	if m.MeanAbsPct > 1e-9 {
		t.Fatalf("MeanAbsPct = %g on perfect fit", m.MeanAbsPct)
	}
}

func BenchmarkFit64x10(b *testing.B) {
	r := rng.New(4)
	rows := make([][]float64, 64)
	y := make([]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, 10)
		for j := range rows[i] {
			rows[i][j] = r.Float64()
		}
		y[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(rows, y); err != nil {
			b.Fatal(err)
		}
	}
}
