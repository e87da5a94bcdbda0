// Package regress implements ordinary least-squares linear regression,
// the tool the paper uses twice: to train the cross-core IPC predictor
// coefficient matrix Θ (Eq. 8, "we employ standard linear regression
// using the least squares method") and the per-core-type power fit
// p = α₁·ipc + α₀ (Eq. 9, "obtained from offline profiling").
package regress

import (
	"errors"
	"fmt"
	"math"

	"smartbalance/internal/mat"
)

// ErrBadData is returned when the training set is unusable (empty,
// ragged, or fewer samples than features).
var ErrBadData = errors.New("regress: unusable training data")

// Model is a fitted linear model y ~= Coef · x. If the caller wants an
// intercept it appends a constant-1 feature, which is the convention
// used throughout this repository (it mirrors the "const" column of the
// paper's Table 4).
type Model struct {
	// Coef holds one weight per feature.
	Coef []float64
	// R2 is the coefficient of determination on the training set.
	R2 float64
	// RMSE is the root-mean-square training error.
	RMSE float64
	// MeanAbsPct is the mean absolute percentage error on the training
	// set, ignoring targets with magnitude below 1e-9. This is the error
	// measure reported in the paper's Fig. 6.
	MeanAbsPct float64
	// N is the number of training samples.
	N int
}

// lambda is the ridge term added to the diagonal of AᵀA when a design
// is fitted by the normal equations: small enough to leave a
// well-conditioned fit unmoved, large enough to make a rank-deficient
// one solvable.
const lambda = 1e-6

// Fit computes the least-squares solution for the design matrix rows
// (one sample per entry, one feature per column) against targets y. It
// solves by QR and falls back to the ridge normal equations when the
// design is rank-deficient.
func Fit(rows [][]float64, y []float64) (*Model, error) {
	return fit(rows, y, solveQROrRidge)
}

// Ridge fits the design by the ridge-regularised normal equations
// (AᵀA + λI) x = Aᵀy without trying QR first. It is for designs that
// are rank-deficient by construction, where Fit's QR attempt always
// fails; on those its result is Fit's, bit for bit.
func Ridge(rows [][]float64, y []float64) (*Model, error) {
	return fit(rows, y, solveRidge)
}

// fit rejects an empty, ragged or underdetermined training set, solves
// it and fills in the training statistics.
func fit(rows [][]float64, y []float64, solve func([][]float64, []float64) ([]float64, error)) (*Model, error) {
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
	coef, err := solve(rows, y)
	if err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	m := &Model{Coef: coef, N: len(y)}
	m.computeStats(rows, y)
	return m, nil
}

func solveQROrRidge(rows [][]float64, y []float64) ([]float64, error) {
	coef, err := mat.LeastSquares(mat.FromRows(rows), y)
	if errors.Is(err, mat.ErrSingular) {
		// A collinear feature makes the design singular: FR and const
		// within one type pair, or a counter column that is identically
		// zero for a core type (the zero entries of the paper's Table 4).
		return solveRidge(rows, y)
	}
	return coef, err
}

// solveRidge solves (AᵀA + λI) x = Aᵀy. It accumulates the upper
// triangle of AᵀA and Aᵀy in one pass over the rows, each entry summing
// its products in row order as mat.Mul(a.T(), a) and MulVec do, and
// mirrors the triangle.
func solveRidge(rows [][]float64, y []float64) ([]float64, error) {
	p := len(rows[0])
	g := mat.New(p, p)
	aty := make([]float64, p)
	for k, r := range rows {
		for i, ri := range r {
			for j := i; j < p; j++ {
				g.Set(i, j, g.At(i, j)+ri*r[j])
			}
			aty[i] += ri * y[k]
		}
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			g.Set(j, i, g.At(i, j))
		}
		g.Set(i, i, g.At(i, i)+lambda)
	}
	return mat.Solve(g, aty)
}

// Predict evaluates the model on a single feature vector.
func (m *Model) Predict(x []float64) float64 {
	return mat.Dot(m.Coef, x)
}

// computeStats fills R2, RMSE, and MeanAbsPct from the training set.
func (m *Model) computeStats(rows [][]float64, y []float64) {
	n := float64(len(y))
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= n

	var ssRes, ssTot, sumSq, sumPct float64
	nPct := 0
	for i, r := range rows {
		pred := m.Predict(r)
		d := y[i] - pred
		ssRes += d * d
		t := y[i] - meanY
		ssTot += t * t
		sumSq += d * d
		if math.Abs(y[i]) > 1e-9 {
			sumPct += math.Abs(d / y[i])
			nPct++
		}
	}
	if ssTot > 0 {
		m.R2 = 1 - ssRes/ssTot
	} else {
		m.R2 = 1
	}
	m.RMSE = math.Sqrt(sumSq / n)
	if nPct > 0 {
		m.MeanAbsPct = 100 * sumPct / float64(nPct)
	}
}

// Evaluate returns the mean absolute percentage error of the model on a
// held-out set, the paper's Fig. 6 metric. Targets below 1e-9 in
// magnitude are skipped.
func (m *Model) Evaluate(rows [][]float64, y []float64) (mape float64, err error) {
	if len(rows) != len(y) || len(rows) == 0 {
		return 0, ErrBadData
	}
	sum := 0.0
	n := 0
	for i, r := range rows {
		if len(r) != len(m.Coef) {
			return 0, ErrBadData
		}
		if math.Abs(y[i]) <= 1e-9 {
			continue
		}
		sum += math.Abs((y[i] - m.Predict(r)) / y[i])
		n++
	}
	if n == 0 {
		return 0, ErrBadData
	}
	return 100 * sum / float64(n), nil
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
