package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Fatalf("Mean = %g, err %v", m, err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatal("empty Mean should error")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4, 16})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean = %g, err %v", g, err)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Fatal("negative sample accepted")
	}
	if _, err := GeoMean(nil); err != ErrEmpty {
		t.Fatal("empty GeoMean should error")
	}
}

func TestGeoMeanLEArithmeticMean(t *testing.T) {
	// AM-GM inequality as a property test.
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g, err1 := GeoMean(xs)
		m, err2 := Mean(xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return g <= m+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStdDev(t *testing.T) {
	s, err := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Sample std dev of this classic set is sqrt(32/7).
	if math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("StdDev = %g", s)
	}
	if s, _ := StdDev([]float64{42}); s != 0 {
		t.Fatal("single-sample std dev should be 0")
	}
	if _, err := StdDev(nil); err != ErrEmpty {
		t.Fatal("empty StdDev should error")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if m, _ := Min(xs); m != -1 {
		t.Fatalf("Min = %g", m)
	}
	if m, _ := Max(xs); m != 7 {
		t.Fatalf("Max = %g", m)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatal("empty Min should error")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatal("empty Max should error")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Summary = %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatal("empty Summarize should error")
	}
}

func TestJainFairness(t *testing.T) {
	j, err := JainFairness([]float64{1, 1, 1, 1})
	if err != nil || math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal shares: %g, %v", j, err)
	}
	j, err = JainFairness([]float64{1, 0, 0, 0})
	if err != nil || math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("one hoarder of four: %g, %v", j, err)
	}
	if _, err := JainFairness(nil); err != ErrEmpty {
		t.Fatal("empty set accepted")
	}
	if _, err := JainFairness([]float64{0, 0}); err == nil {
		t.Fatal("all-zero set accepted")
	}
	if _, err := JainFairness([]float64{1, -1}); err == nil {
		t.Fatal("negative sample accepted")
	}
}

func TestJainFairnessScaleInvariant(t *testing.T) {
	a, _ := JainFairness([]float64{2, 3, 5})
	b, _ := JainFairness([]float64{20, 30, 50})
	if math.Abs(a-b) > 1e-12 {
		t.Fatal("Jain index should be scale invariant")
	}
}
