package fixedpt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 100.25, -100.25}
	for _, f := range cases {
		got := FromFloat(f).Float()
		if math.Abs(got-f) > 1.0/float64(One) {
			t.Errorf("round trip %g -> %g, err %g", f, got, got-f)
		}
	}
}

func TestFromFloatSaturation(t *testing.T) {
	if FromFloat(1e9) != MaxQ {
		t.Error("large positive did not saturate to MaxQ")
	}
	if FromFloat(-1e9) != MinQ {
		t.Error("large negative did not saturate to MinQ")
	}
}

func TestFromIntRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, -1, 42, -42, 32767, -32768} {
		if got := FromInt(i).Int(); got != i {
			t.Errorf("FromInt(%d).Int() = %d", i, got)
		}
	}
}

func TestFromIntSaturation(t *testing.T) {
	if FromInt(1<<20) != MaxQ {
		t.Error("FromInt overflow did not saturate")
	}
	if FromInt(-(1 << 20)) != MinQ {
		t.Error("FromInt underflow did not saturate")
	}
}

func TestAddSub(t *testing.T) {
	a := FromFloat(1.5)
	b := FromFloat(2.25)
	if got := Add(a, b).Float(); got != 3.75 {
		t.Errorf("1.5+2.25 = %g", got)
	}
	if got := Sub(a, b).Float(); got != -0.75 {
		t.Errorf("1.5-2.25 = %g", got)
	}
}

func TestAddSaturates(t *testing.T) {
	if Add(MaxQ, One) != MaxQ {
		t.Error("Add overflow did not saturate")
	}
	if Sub(MinQ, One) != MinQ {
		t.Error("Sub underflow did not saturate")
	}
}

func TestMul(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{1.5, -2, -3},
		{0, 123.456, 0},
	}
	for _, c := range cases {
		got := Mul(FromFloat(c.a), FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 2.0/float64(One) {
			t.Errorf("%g*%g = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestMulSaturates(t *testing.T) {
	big := FromFloat(30000)
	if Mul(big, big) != MaxQ {
		t.Error("Mul overflow did not saturate")
	}
	if Mul(big, FromFloat(-30000)) != MinQ {
		t.Error("Mul negative overflow did not saturate")
	}
}

func TestDiv(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{6, 3, 2},
		{1, 2, 0.5},
		{-6, 3, -2},
		{3, -2, -1.5},
	}
	for _, c := range cases {
		got := Div(FromFloat(c.a), FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 2.0/float64(One) {
			t.Errorf("%g/%g = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDivByZero(t *testing.T) {
	if Div(One, 0) != MaxQ {
		t.Error("1/0 should saturate to MaxQ")
	}
	if Div(-One, 0) != MinQ {
		t.Error("-1/0 should saturate to MinQ")
	}
	if Div(0, 0) != MaxQ {
		t.Error("0/0 should saturate to MaxQ")
	}
}

func TestMulDivProperty(t *testing.T) {
	// (a*b)/b ~= a for moderate values.
	// Keep |a*b| well inside the representable range so saturation does
	// not (correctly) break the identity.
	f := func(ai, bi int16) bool {
		a := FromFloat(float64(ai) / 4096) // |a| <= 8
		b := FromFloat(float64(bi)/256 + 130)
		if b.Float() < 1 {
			b = One
		}
		prod := Mul(a, b)
		back := Div(prod, b)
		return math.Abs(back.Float()-a.Float()) < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpNegAccuracy(t *testing.T) {
	// The annealer only needs a few percent of relative accuracy while the
	// acceptance probability is still meaningfully above zero. Below that
	// (want < ~2.5e-3, i.e. x > ~6) the Q16.16 resolution floor dominates
	// and only absolute accuracy matters.
	worstRel, worstAbs := 0.0, 0.0
	for x := 0.0; x <= 12; x += 0.01 {
		got := ExpNegFloat(x)
		want := math.Exp(-x)
		if want >= 2.5e-3 {
			if rel := math.Abs(got-want) / want; rel > worstRel {
				worstRel = rel
			}
		} else if abs := math.Abs(got - want); abs > worstAbs {
			worstAbs = abs
		}
	}
	if worstRel > 0.04 {
		t.Fatalf("ExpNeg worst-case relative error %.4f > 4%%", worstRel)
	}
	if worstAbs > 2e-4 {
		t.Fatalf("ExpNeg worst-case tail absolute error %.6f > 2e-4", worstAbs)
	}
}

func TestExpNegBoundaries(t *testing.T) {
	if ExpNeg(0) != One {
		t.Error("exp(-0) != 1")
	}
	if ExpNeg(-One) != One {
		t.Error("exp of negative arg should clamp to 1")
	}
	if v := ExpNeg(FromFloat(30)); v != 0 {
		t.Errorf("exp(-30) = %g, want underflow to 0", v.Float())
	}
}

// expNegLoop is the original subtract-ln2 form of ExpNeg, kept
// verbatim as the reference the closed form must reproduce exactly.
func expNegLoop(x Q) Q {
	if x <= 0 {
		return One
	}
	const ln2 Q = 45426 // round(ln(2) * 65536)
	// Integer count of ln2 halvings.
	k := 0
	for x >= ln2 {
		x -= ln2
		k++
		if k >= 31 {
			return 0
		}
	}
	// x is now in [0, ln2). Index the 1/16-granular table.
	i := int(x >> (Shift - 4)) // x / (1/16)
	if i > 15 {
		i = 15
	}
	r := x - Q(i)<<(Shift-4) // residual in [0, 1/16)
	// First-order correction: exp(-r) ~= 1 - r for small r.
	v := Mul(expFracTable[i], One-r)
	return v >> uint(k)
}

// expNegEdges are the inputs where the branches of ExpNeg and of the
// loop form meet: the last exponent with a nonzero result (16·ln2),
// the closed form's underflow bound (17·ln2), the loop's own cut-off
// (31·ln2), the top of the range, and the clamped negative side.
var expNegEdges = []Q{
	16 * 45426, 16*45426 + 1, 17*45426 - 1, 17 * 45426,
	31*45426 - 1, 31 * 45426, 32 * 45426, MaxQ, 0, -1, MinQ,
}

// TestExpNegMatchesLoop: ExpNeg is bit-identical to the loop form on
// every input up to 32·ln2, on a strided sweep up to MaxQ, and at the
// branch edges.
func TestExpNegMatchesLoop(t *testing.T) {
	check := func(x Q) {
		if got, want := ExpNeg(x), expNegLoop(x); got != want {
			t.Fatalf("ExpNeg(%d) = %d, loop form gives %d", x, got, want)
		}
	}
	for x := Q(0); x <= 32*45426; x++ {
		check(x)
	}
	for x := int64(0); x <= int64(MaxQ); x += 4099 {
		check(Q(x))
	}
	for _, x := range expNegEdges {
		check(x)
	}
}

func TestExpNegMonotone(t *testing.T) {
	prev := ExpNeg(0)
	for x := Q(1); x < FromInt(15); x += 997 {
		cur := ExpNeg(x)
		if cur > prev {
			t.Fatalf("ExpNeg not monotone at x=%g: %g > %g", x.Float(), cur.Float(), prev.Float())
		}
		prev = cur
	}
}

func TestSqrt(t *testing.T) {
	cases := []float64{0, 1, 2, 4, 9, 0.25, 100, 1024, 30000}
	for _, f := range cases {
		got := Sqrt(FromFloat(f)).Float()
		want := math.Sqrt(f)
		if math.Abs(got-want) > 0.01*(want+1) {
			t.Errorf("sqrt(%g) = %g, want %g", f, got, want)
		}
	}
}

func TestSqrtNegative(t *testing.T) {
	if Sqrt(FromFloat(-4)) != 0 {
		t.Error("sqrt of negative should return 0")
	}
}

func TestSqrtProperty(t *testing.T) {
	f := func(v uint16) bool {
		q := FromFloat(float64(v) / 4)
		s := Sqrt(q)
		back := Mul(s, s)
		return math.Abs(back.Float()-q.Float()) <= 0.05*(q.Float()+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	lo, hi := FromInt(-2), FromInt(5)
	if Clamp(FromInt(7), lo, hi) != hi {
		t.Error("clamp high failed")
	}
	if Clamp(FromInt(-9), lo, hi) != lo {
		t.Error("clamp low failed")
	}
	if v := FromInt(3); Clamp(v, lo, hi) != v {
		t.Error("clamp identity failed")
	}
}

func BenchmarkExpNeg(b *testing.B) {
	x := FromFloat(2.5)
	var sink Q
	for i := 0; i < b.N; i++ {
		sink ^= ExpNeg(x)
	}
	_ = sink
}

func BenchmarkExpNegFloatStdlib(b *testing.B) {
	// Reference: what the paper avoids in kernel space.
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += math.Exp(-2.5)
	}
	_ = sink
}
