// Package stats provides the small set of descriptive statistics the
// experiment harness reports: means (arithmetic and geometric), standard
// deviation, extremes, and Jain's fairness index.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or an error for empty input.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// GeoMean returns the geometric mean of xs. All samples must be
// positive; otherwise an error is returned. The paper reports ratio
// improvements ("over 50%"), for which geometric means are the honest
// aggregate.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geometric mean of non-positive sample")
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// StdDev returns the sample standard deviation (n-1 denominator). A
// single sample yields 0.
func StdDev(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1)), nil
}

// Min returns the smallest sample.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest sample.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Summary bundles the descriptive statistics of one sample set.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes a Summary, or an error for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	var s Summary
	s.N = len(xs)
	s.Mean, _ = Mean(xs)
	s.Std, _ = StdDev(xs)
	s.Min, _ = Min(xs)
	s.Max, _ = Max(xs)
	return s, nil
}

// JainFairness returns Jain's fairness index (Σx)²/(n·Σx²) of the
// samples: 1 when all shares are equal, approaching 1/n as one sample
// dominates. Samples must be non-negative; an all-zero set returns an
// error.
func JainFairness(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			return 0, errors.New("stats: negative sample in fairness index")
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 { //sbvet:allow floateq(a sum of squares is exactly zero iff every sample is zero)
		return 0, errors.New("stats: all-zero samples in fairness index")
	}
	return sum * sum / (float64(len(xs)) * sumSq), nil
}
