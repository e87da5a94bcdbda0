// Package regress implements the least-squares linear regression the
// paper uses twice: to train the cross-core IPC predictor coefficient
// matrix Θ (Eq. 8, "we employ standard linear regression using the
// least squares method") and the per-core-type power fit
// p = α₁·ipc + α₀ (Eq. 9, "obtained from offline profiling").
package regress

import (
	"errors"
	"math"
)

// ErrBadData is returned when the training set is unusable (empty,
// ragged, or fewer samples than features).
var ErrBadData = errors.New("regress: unusable training data")

// ErrSingular is returned when the ridge system has no unique solution
// at working precision.
var ErrSingular = errors.New("regress: matrix is singular to working precision")

// Model is a fitted linear model y ~= Coef · x. If the caller wants an
// intercept it appends a constant-1 feature, which is the convention
// used throughout this repository (it mirrors the "const" column of the
// paper's Table 4).
type Model struct {
	// Coef holds one weight per feature.
	Coef []float64
	// MeanAbsPct is the mean absolute percentage error on the training
	// set, ignoring targets with magnitude below 1e-9. This is the error
	// measure reported in the paper's Fig. 6.
	MeanAbsPct float64
	// N is the number of training samples.
	N int
}

// lambda is the ridge term added to the diagonal of AᵀA: small enough
// to leave a well-conditioned fit unmoved, large enough to make a
// rank-deficient one solvable.
const lambda = 1e-6

// Ridge fits the design rows (one sample per entry, one feature per
// column) against targets y by the ridge-regularised normal equations
// (AᵀA + λI) x = Aᵀy, the one solve the predictor designs admit: FR is
// constant within a source→destination pair, so the FR and const
// columns are proportional, and a masked counter is an all-zero column.
// It returns ErrBadData for an empty, ragged or underdetermined
// training set and ErrSingular when a pivot underflows. rows and y are
// not modified.
func Ridge(rows [][]float64, y []float64) (*Model, error) {
	if len(rows) == 0 || len(rows) != len(y) {
		return nil, ErrBadData
	}
	p := len(rows[0])
	if p == 0 || len(rows) < p {
		return nil, ErrBadData
	}
	for _, r := range rows {
		if len(r) != p {
			return nil, ErrBadData
		}
	}
	// One pass over the rows accumulates the upper triangle of AᵀA and
	// Aᵀy, each entry summing its products in row order; the triangle
	// is then mirrored.
	g := make([]float64, p*p)
	aty := make([]float64, p)
	for k, r := range rows {
		for i, ri := range r {
			gi := g[i*p : (i+1)*p]
			for j := i; j < p; j++ {
				gi[j] += ri * r[j]
			}
			aty[i] += ri * y[k]
		}
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			g[j*p+i] = g[i*p+j]
		}
		g[i*p+i] += lambda
	}
	if err := solve(g, aty); err != nil {
		return nil, err
	}
	m := &Model{Coef: aty, N: len(y)}
	m.computeStats(rows, y)
	return m, nil
}

// solve solves the n×n system a·x = b, a row-major, in place by
// Gaussian elimination with partial pivoting: x holds b on entry and
// the solution on return, and a is overwritten. It returns ErrSingular
// if a pivot's magnitude falls below 1e-12.
func solve(a, x []float64) error {
	n := len(x)
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below the
		// diagonal.
		pivot := col
		maxAbs := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			return ErrSingular
		}
		if pivot != col {
			rp, rc := a[pivot*n:(pivot+1)*n], a[col*n:(col+1)*n]
			for i := range rp {
				rp[i], rc[i] = rc[i], rp[i]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 { //sbvet:allow floateq(exact-zero elimination skip; the update is a no-op for an exactly zero factor)
				continue
			}
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a[i*n+j] * x[j]
		}
		x[i] = s / a[i*n+i]
	}
	return nil
}

// Predict evaluates the model on a single feature vector. It panics if
// x and Coef differ in length, as that is always a programming error
// here.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Coef) {
		panic("regress: Predict length mismatch")
	}
	s := 0.0
	for i, c := range m.Coef {
		s += c * x[i]
	}
	return s
}

// computeStats fills MeanAbsPct from the training set.
func (m *Model) computeStats(rows [][]float64, y []float64) {
	var sumPct float64
	nPct := 0
	for i, r := range rows {
		if math.Abs(y[i]) > 1e-9 {
			sumPct += math.Abs((y[i] - m.Predict(r)) / y[i])
			nPct++
		}
	}
	if nPct > 0 {
		m.MeanAbsPct = 100 * sumPct / float64(nPct)
	}
}

// SimpleFit fits the one-dimensional affine model y = a1*x + a0 and
// returns (a1, a0). It is the Eq. 9 power fit. It returns ErrBadData for
// fewer than two samples or a degenerate x.
func SimpleFit(x, y []float64) (a1, a0 float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, ErrBadData
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return 0, 0, ErrBadData
	}
	a1 = (n*sxy - sx*sy) / den
	a0 = (sy - a1*sx) / n
	return a1, a0, nil
}
