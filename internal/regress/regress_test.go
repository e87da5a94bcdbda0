package regress

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"smartbalance/internal/rng"
)

func TestFitWithNoiseIsUnbiased(t *testing.T) {
	r := rng.New(2)
	var rows [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		x := r.Float64() * 4
		rows = append(rows, []float64{x, 1})
		y = append(y, 2.5*x+1+r.NormFloat64()*0.1)
	}
	m, err := Ridge(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2.5) > 0.02 || math.Abs(m.Coef[1]-1) > 0.03 {
		t.Fatalf("noisy fit coef = %v", m.Coef)
	}
}

func TestFitRejectsBadData(t *testing.T) {
	if _, err := Ridge(nil, nil); !errors.Is(err, ErrBadData) {
		t.Fatalf("empty data: got %v", err)
	}
	if _, err := Ridge([][]float64{{1, 2}}, []float64{1}); !errors.Is(err, ErrBadData) {
		t.Fatalf("fewer samples than features: got %v", err)
	}
	if _, err := Ridge([][]float64{{1, 2}, {3}}, []float64{1, 2}); !errors.Is(err, ErrBadData) {
		t.Fatalf("ragged rows: got %v", err)
	}
	if _, err := Ridge([][]float64{{1}, {2}}, []float64{1}); !errors.Is(err, ErrBadData) {
		t.Fatalf("length mismatch: got %v", err)
	}
}

func TestFitCollinearFallsBackToRidge(t *testing.T) {
	// Feature 2 is identically zero (like Table 4's itlb column for Big
	// sources), so AᵀA is singular and only the ridge term makes the
	// system solvable.
	r := rng.New(3)
	var rows [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		x := r.Float64() * 5
		rows = append(rows, []float64{x, 0, 1})
		y = append(y, 4*x+2)
	}
	m, err := Ridge(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-4) > 1e-3 || math.Abs(m.Coef[2]-2) > 1e-2 {
		t.Fatalf("ridge coef = %v", m.Coef)
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
// against the textbook construction bit for bit, coefficients and
// MAPE: AᵀA as the general product of Aᵀ with A (row by row of Aᵀ,
// skipping exact-zero factors), Aᵀy as one dot product per column, λ on
// the diagonal, then the same solve. The designs are random, with exact
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

		ata := make([]float64, p*p)
		aty := make([]float64, p)
		for i := 0; i < p; i++ {
			for k := 0; k < n; k++ {
				aki := rows[k][i] // Aᵀ[i][k]
				if aki == 0 {
					continue
				}
				for j := 0; j < p; j++ {
					ata[i*p+j] += aki * rows[k][j]
				}
			}
			ata[i*p+i] += lambda
			s := 0.0
			for k := 0; k < n; k++ {
				s += rows[k][i] * y[k]
			}
			aty[i] = s
		}
		refErr := solve(ata, aty)

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
		want := &Model{Coef: aty, N: n}
		want.computeStats(rows, y)
		same := got.N == want.N &&
			math.Float64bits(got.MeanAbsPct) == math.Float64bits(want.MeanAbsPct)
		for j := range aty {
			same = same && math.Float64bits(got.Coef[j]) == math.Float64bits(aty[j])
		}
		if !same {
			t.Fatalf("trial %d (%dx%d): Ridge %+v, reference %+v", trial, n, p, got, want)
		}
	}
}

// TestRidgeDoesNotMutateInputs pins that Ridge only reads the design:
// core.Train refills one design for every pair and fits each in turn.
func TestRidgeDoesNotMutateInputs(t *testing.T) {
	rows := [][]float64{{1, 2, 1}, {3, -1, 1}, {0, 4, 1}, {2, 2, 1}}
	y := []float64{1, 2, 3, 4}
	wantRows := [][]float64{{1, 2, 1}, {3, -1, 1}, {0, 4, 1}, {2, 2, 1}}
	wantY := []float64{1, 2, 3, 4}
	if _, err := Ridge(rows, y); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for j := range rows[i] {
			if math.Float64bits(rows[i][j]) != math.Float64bits(wantRows[i][j]) {
				t.Fatalf("rows[%d][%d] = %g, want %g", i, j, rows[i][j], wantRows[i][j])
			}
		}
		if math.Float64bits(y[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], wantY[i])
		}
	}
}

func TestSolveKnown(t *testing.T) {
	a := []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	}
	x := []float64{8, -11, -3}
	if err := solve(a, x); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("solve x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	if err := solve([]float64{1, 2, 2, 4}, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSolveProperty(t *testing.T) {
	// For a random strictly diagonally dominant (so nonsingular and
	// well-conditioned) A and a random x, solve(A, A·x) recovers x.
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 2 + r.Intn(6)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				v := r.Float64()*2 - 1
				a[i*n+j] = v
				sum += math.Abs(v)
			}
			a[i*n+i] = sum + 1 + r.Float64()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := range b {
			for j, v := range a[i*n : (i+1)*n] {
				b[i] += v * x[j]
			}
		}
		if solve(a, b) != nil {
			return false
		}
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Predict length mismatch did not panic")
		}
	}()
	m := &Model{Coef: []float64{1, 2}}
	m.Predict([]float64{1})
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
	// MeanAbsPct is the MAPE of Predict over the training rows, bit for
	// bit: the zero target is skipped, the small 1e-6 one counts.
	rows := [][]float64{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {3, 1}, {5, 1}}
	y := []float64{3.1, 4.8, 9.5, 17.2, 0, 1e-6}
	m, err := Ridge(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for i, r := range rows {
		if math.Abs(y[i]) <= 1e-9 {
			continue
		}
		sum += math.Abs((y[i] - m.Predict(r)) / y[i])
		n++
	}
	want := 100 * sum / float64(n)
	if math.Float64bits(m.MeanAbsPct) != math.Float64bits(want) || want == 0 {
		t.Fatalf("MeanAbsPct = %g, recomputed from Predict %g", m.MeanAbsPct, want)
	}
}

func BenchmarkRidge64x10(b *testing.B) {
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
		if _, err := Ridge(rows, y); err != nil {
			b.Fatal(err)
		}
	}
}
