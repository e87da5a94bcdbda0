package mat

import (
	"math"
	"testing"
	"testing/quick"

	"smartbalance/internal/rng"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %g", m.At(2, 1))
	}
	if r := m.Row(1); r[0] != 3 || r[1] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	if c := m.Col(0); c[0] != 1 || c[1] != 3 || c[2] != 5 {
		t.Fatalf("Col(0) = %v", c)
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowColAreCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row returned a view, want a copy")
	}
	c := m.Col(1)
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col returned a view, want a copy")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T dims %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(21)
	m := randomMatrix(r, 5, 7)
	tt := m.T().T()
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if m.At(i, j) != tt.At(i, j) {
				t.Fatal("T(T(m)) != m")
			}
		}
	}
}

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	s, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1, 1) != 44 {
		t.Fatalf("Add wrong: %v", s)
	}
	d, err := Sub(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 0) != 9 {
		t.Fatalf("Sub wrong: %v", d)
	}
}

func TestAddShapeError(t *testing.T) {
	if _, err := Add(New(2, 2), New(2, 3)); err != ErrShape {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(31)
	m := randomMatrix(r, 4, 4)
	p, err := Mul(m, Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !approxEq(p.At(i, j), m.At(i, j), 1e-12) {
				t.Fatal("M*I != M")
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	p, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Fatalf("Mul wrong at (%d,%d): %g", i, j, p.At(i, j))
			}
		}
	}
}

func TestMulShapeError(t *testing.T) {
	if _, err := Mul(New(2, 3), New(2, 3)); err != ErrShape {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(r, 3, 4)
		b := randomMatrix(r, 4, 2)
		c := randomMatrix(r, 2, 5)
		ab, _ := Mul(a, b)
		left, _ := Mul(ab, c)
		bc, _ := Mul(b, c)
		right, _ := Mul(a, bc)
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				if !approxEq(left.At(i, j), right.At(i, j), 1e-9) {
					t.Fatalf("associativity broken at trial %d", trial)
				}
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := m.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 6 || v[1] != 15 {
		t.Fatalf("MulVec = %v", v)
	}
	if _, err := m.MulVec([]float64{1}); err != ErrShape {
		t.Fatal("MulVec shape error not reported")
	}
}

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !approxEq(x[i], want[i], 1e-9) {
			t.Fatalf("Solve x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSolveShapeError(t *testing.T) {
	if _, err := Solve(New(2, 3), []float64{1, 2}); err != ErrShape {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := Solve(New(2, 2), []float64{1}); err != ErrShape {
		t.Fatalf("want ErrShape for short b, got %v", err)
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 4 || a.At(1, 0) != 1 || b[0] != 1 || b[1] != 2 {
		t.Fatal("Solve mutated its inputs")
	}
}

func TestSolveProperty(t *testing.T) {
	// For random well-conditioned A and random x, Solve(A, A*x) == x.
	r := rng.New(51)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		n := 2 + rr.Intn(6)
		a := randomDiagDominant(rr, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rr.Float64()*10 - 5
		}
		b, err := a.MulVec(x)
		if err != nil {
			return false
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !approxEq(got[i], x[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestLeastSquaresExact(t *testing.T) {
	// Square full-rank system: least squares must reproduce Solve.
	a := FromRows([][]float64{{3, 1}, {1, 2}})
	b := []float64{9, 8}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 2, 1e-9) || !approxEq(x[1], 3, 1e-9) {
		t.Fatalf("LeastSquares = %v, want [2 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 with noise-free samples: exact recovery.
	rows := [][]float64{}
	ys := []float64{}
	for i := 0; i < 10; i++ {
		x := float64(i)
		rows = append(rows, []float64{x, 1})
		ys = append(ys, 2*x+1)
	}
	coef, err := LeastSquares(FromRows(rows), ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(coef[0], 2, 1e-9) || !approxEq(coef[1], 1, 1e-9) {
		t.Fatalf("coef = %v", coef)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The residual of a least-squares solution is orthogonal to the
	// column space of A: A^T (Ax - b) == 0.
	r := rng.New(61)
	a := randomMatrix(r, 12, 4)
	b := make([]float64, 12)
	for i := range b {
		b[i] = r.Float64()*4 - 2
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	res := make([]float64, len(b))
	for i := range res {
		res[i] = ax[i] - b[i]
	}
	proj, _ := a.T().MulVec(res)
	for i, v := range proj {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("residual not orthogonal: A^T r [%d] = %g", i, v)
		}
	}
}

func TestLeastSquaresUnderdeterminedRejected(t *testing.T) {
	if _, err := LeastSquares(New(2, 3), []float64{1, 2}); err != ErrShape {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	// Second column is a multiple of the first.
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// TestLeastSquaresRankIsScaleInvariant checks that rank is judged
// relative to each column's norm: a design whose column 0 is 1.7 times
// column 2 is singular at every scale, and a full-rank design solves
// at every scale (A and b scaled together leave x unchanged).
func TestLeastSquaresRankIsScaleInvariant(t *testing.T) {
	col1 := []float64{2.0, -0.5, 1.3, 0.4, -1.1, 0.8}
	col2 := []float64{0.3, 1.1, 2.6, 0.7, 1.9, 3.2}
	indep := []float64{1.0, 0.2, -0.7, 1.5, 0.3, -0.4}
	want := []float64{2, -1, 0.5}
	for _, scale := range []float64{1e-14, 1e-9, 1, 1e3, 1e6} {
		deficient := New(len(col1), 3)
		full := New(len(col1), 3)
		b := make([]float64, len(col1))
		for i := range col1 {
			deficient.Set(i, 0, scale*1.7*col2[i])
			deficient.Set(i, 1, scale*col1[i])
			deficient.Set(i, 2, scale*col2[i])
			full.Set(i, 0, scale*indep[i])
			full.Set(i, 1, scale*col1[i])
			full.Set(i, 2, scale*col2[i])
			b[i] = scale * (want[0]*indep[i] + want[1]*col1[i] + want[2]*col2[i])
		}
		if x, err := LeastSquares(deficient, b); err != ErrSingular {
			t.Errorf("scale %g: proportional columns gave x = %v, err = %v; want ErrSingular", scale, x, err)
		}
		x, err := LeastSquares(full, b)
		if err != nil {
			t.Errorf("scale %g: full-rank design: %v", scale, err)
			continue
		}
		for i, w := range want {
			if !approxEq(x[i], w, 1e-9) {
				t.Errorf("scale %g: x = %v, want %v", scale, x, want)
				break
			}
		}
	}
}

func TestNorm2AndDot(t *testing.T) {
	if !approxEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestStringRendering(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Fatal("String() empty")
	}
}

func randomMatrix(r *rng.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.Float64()*10-5)
		}
	}
	return m
}

// randomDiagDominant builds a random strictly diagonally dominant matrix
// (guaranteed nonsingular and well-conditioned enough for the property
// test).
func randomDiagDominant(r *rng.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := r.Float64()*2 - 1
			m.Set(i, j, v)
			sum += math.Abs(v)
		}
		m.Set(i, i, sum+1+r.Float64())
	}
	return m
}

func BenchmarkSolve8(b *testing.B) {
	r := rng.New(71)
	a := randomDiagDominant(r, 8)
	v := make([]float64, 8)
	for i := range v {
		v[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeastSquares32x10(b *testing.B) {
	r := rng.New(81)
	a := randomMatrix(r, 32, 10)
	v := make([]float64, 32)
	for i := range v {
		v[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, v); err != nil {
			b.Fatal(err)
		}
	}
}
