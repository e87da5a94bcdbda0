// Package mat implements the small dense-matrix kernel the SmartBalance
// reproduction needs: basic arithmetic, linear system solving via
// Gaussian elimination with partial pivoting, and least-squares fitting
// via the QR decomposition (Householder reflections).
//
// The matrices involved are tiny (tens of rows for the predictor
// training sets, ~10 columns of workload features), so clarity and
// numerical robustness are preferred over blocking or vectorisation.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a linear system has no unique solution at
// working precision.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-filled rows x cols matrix. It panics if either
// dimension is non-positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows with empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d (len %d, want %d)", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j). Indices are bounds-checked by the
// underlying slice access.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add returns a+b. It returns ErrShape if dimensions differ.
func Add(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, ErrShape
	}
	c := New(a.rows, a.cols)
	for i := range c.data {
		c.data[i] = a.data[i] + b.data[i]
	}
	return c, nil
}

// Sub returns a-b. It returns ErrShape if dimensions differ.
func Sub(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, ErrShape
	}
	c := New(a.rows, a.cols)
	for i := range c.data {
		c.data[i] = a.data[i] - b.data[i]
	}
	return c, nil
}

// Mul returns the matrix product a*b. It returns ErrShape if the inner
// dimensions disagree.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, ErrShape
	}
	c := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			aik := a.At(i, k)
			if aik == 0 { //sbvet:allow floateq(exact-zero sparsity skip; a skipped zero term contributes nothing either way)
				continue
			}
			for j := 0; j < b.cols; j++ {
				c.data[i*c.cols+j] += aik * b.At(k, j)
			}
		}
	}
	return c, nil
}

// MulVec returns the matrix-vector product m*x. It returns ErrShape if
// len(x) != m.Cols().
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, ErrShape
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Solve solves the square system A*x = b by Gaussian elimination with
// partial pivoting. A and b are not modified. It returns ErrShape for a
// non-square A or mismatched b, and ErrSingular if a pivot underflows.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n || len(b) != n {
		return nil, ErrShape
	}
	// Working copies.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below the
		// diagonal.
		pivot := col
		maxAbs := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 { //sbvet:allow floateq(exact-zero elimination skip; the update is a no-op for an exactly zero factor)
				continue
			}
			for c := col; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

func swapRows(m *Matrix, a, b int) {
	ra := m.data[a*m.cols : (a+1)*m.cols]
	rb := m.data[b*m.cols : (b+1)*m.cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// LeastSquares solves min ||A*x - b||_2 for x using Householder QR. A
// must have at least as many rows as columns; otherwise ErrShape is
// returned. ErrSingular is returned when A is rank-deficient at working
// precision: when some column keeps no more than 1e-12 of its 2-norm
// once the columns before it are projected out. The test is relative,
// so scaling A by any factor does not change the answer; an all-zero
// column is always singular.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	mRows, nCols := a.rows, a.cols
	if len(b) != mRows {
		return nil, ErrShape
	}
	if mRows < nCols {
		return nil, ErrShape
	}
	r := a.Clone()
	y := make([]float64, mRows)
	copy(y, b)
	// tol[k] is the rank threshold of column k: 1e-12 of its 2-norm.
	tol := make([]float64, nCols)
	for k := range tol {
		for i := 0; i < mRows; i++ {
			tol[k] = math.Hypot(tol[k], r.At(i, k))
		}
		tol[k] *= 1e-12
	}

	// Householder triangularisation, applying reflections to y as we go.
	for k := 0; k < nCols; k++ {
		// Norm of the k-th column below (and including) the diagonal.
		norm := 0.0
		for i := k; i < mRows; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm <= tol[k] {
			return nil, ErrSingular
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		// v = x - norm*e1, normalised so v[k] = 1 implicitly via beta.
		v := make([]float64, mRows)
		for i := k; i < mRows; i++ {
			v[i] = r.At(i, k)
		}
		v[k] -= norm
		vtv := 0.0
		for i := k; i < mRows; i++ {
			vtv += v[i] * v[i]
		}
		if vtv == 0 { //sbvet:allow floateq(a sum of squares is exactly zero iff the vector is all zeros)
			return nil, ErrSingular
		}
		beta := 2 / vtv
		// Apply H = I - beta*v*v^T to the remaining columns of R.
		for j := k; j < nCols; j++ {
			dot := 0.0
			for i := k; i < mRows; i++ {
				dot += v[i] * r.At(i, j)
			}
			dot *= beta
			for i := k; i < mRows; i++ {
				r.Set(i, j, r.At(i, j)-dot*v[i])
			}
		}
		// Apply H to y.
		dot := 0.0
		for i := k; i < mRows; i++ {
			dot += v[i] * y[i]
		}
		dot *= beta
		for i := k; i < mRows; i++ {
			y[i] -= dot * v[i]
		}
	}

	// Back-substitute the upper-triangular system R[0:n,0:n] x = y[0:n].
	x := make([]float64, nCols)
	for i := nCols - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < nCols; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if math.Abs(d) <= tol[i] {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s = math.Hypot(s, x)
	}
	return s
}

// Dot returns the inner product of a and b. It panics on length
// mismatch, as that is always a programming error here.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// String renders the matrix with 4 significant digits, one row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%10.4g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
