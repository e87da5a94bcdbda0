// Package fixedpt implements Q16.16 fixed-point arithmetic and the
// custom exponential approximation used by SmartBalance's run-time
// simulated-annealing optimiser (Algorithm 1 in the paper).
//
// The paper notes that "a straightforward floating-point implementation
// ... may lead to long execution times due to the high cost of computing
// the probabilistic functions", and uses "custom fixed-point
// implementations of rand and e^x that trade-off performance with
// uniformity (rand) and precision (e^x)". This package provides that
// arithmetic: a kernel-friendly (no FPU) representation with a fast
// exp(-x) suitable for the Metropolis acceptance rule.
package fixedpt

// Q is a Q16.16 signed fixed-point number: the integer value v
// represents the real number v / 65536.
type Q int32

// Fixed-point constants.
const (
	// Shift is the number of fractional bits.
	Shift = 16
	// One is the fixed-point representation of 1.0.
	One Q = 1 << Shift
	// Half is the fixed-point representation of 0.5.
	Half Q = 1 << (Shift - 1)
	// MaxQ is the largest representable value (~32767.99998).
	MaxQ Q = 1<<31 - 1
	// MinQ is the most negative representable value (~-32768).
	MinQ Q = -1 << 31
)

// FromFloat converts a float64 to Q16.16, saturating at the
// representable range and rounding to nearest.
func FromFloat(f float64) Q {
	v := f * float64(One)
	switch {
	case v >= float64(MaxQ):
		return MaxQ
	case v <= float64(MinQ):
		return MinQ
	case v >= 0:
		return Q(v + 0.5)
	default:
		return Q(v - 0.5)
	}
}

// FromInt converts an integer to Q16.16, saturating at the representable
// range.
func FromInt(i int) Q {
	if i > int(MaxQ>>Shift) {
		return MaxQ
	}
	if i < int(MinQ>>Shift) {
		return MinQ
	}
	return Q(i) << Shift
}

// Float converts q back to a float64.
func (q Q) Float() float64 { return float64(q) / float64(One) }

// Int returns the integer part of q, truncating toward negative
// infinity (arithmetic shift).
func (q Q) Int() int { return int(q >> Shift) }

// Add returns a+b with saturation.
func Add(a, b Q) Q {
	s := int64(a) + int64(b)
	return saturate(s)
}

// Sub returns a-b with saturation.
func Sub(a, b Q) Q {
	s := int64(a) - int64(b)
	return saturate(s)
}

// Mul returns a*b in Q16.16 with saturation, rounding toward zero.
func Mul(a, b Q) Q {
	p := (int64(a) * int64(b)) >> Shift
	return saturate(p)
}

// Div returns a/b in Q16.16 with saturation. Division by zero saturates
// to MaxQ or MinQ according to the sign of a (and MaxQ for 0/0), which is
// the behaviour the annealer wants: an infinite ratio is "very large".
func Div(a, b Q) Q {
	if b == 0 {
		if a < 0 {
			return MinQ
		}
		return MaxQ
	}
	q := (int64(a) << Shift) / int64(b)
	return saturate(q)
}

func saturate(v int64) Q {
	if v > int64(MaxQ) {
		return MaxQ
	}
	if v < int64(MinQ) {
		return MinQ
	}
	return Q(v)
}

// expFracTable[i] holds exp(-i/16) for i in [0,16) in Q16.16. Combined
// with halving for the integer part this gives exp(-x) with a worst-case
// relative error of about 3% (the error of approximating the residual
// linearly), which is ample for a Metropolis acceptance probability.
var expFracTable = [16]Q{}

func init() {
	// Table of exp(-i/16), i = 0..15, precomputed as integer literals so
	// the package stays float-free at run time in the hot path. Values
	// are round(exp(-i/16) * 65536).
	vals := [16]int32{
		65536, // exp(-0/16)   = 1.00000
		61565, // exp(-1/16)   = 0.93941
		57835, // exp(-2/16)   = 0.88250
		54331, // exp(-3/16)   = 0.82903
		51039, // exp(-4/16)   = 0.77880
		47947, // exp(-5/16)   = 0.73162
		45042, // exp(-6/16)   = 0.68729
		42313, // exp(-7/16)   = 0.64565
		39749, // exp(-8/16)   = 0.60653
		37341, // exp(-9/16)   = 0.56978
		35078, // exp(-10/16)  = 0.53526
		32953, // exp(-11/16)  = 0.50283
		30957, // exp(-12/16)  = 0.47237
		29081, // exp(-13/16)  = 0.44374
		27319, // exp(-14/16)  = 0.41686
		25664, // exp(-15/16)  = 0.39160
	}
	for i, v := range vals {
		expFracTable[i] = Q(v)
	}
}

// ExpNeg returns an approximation of exp(-x) for x >= 0 in Q16.16.
// Negative x is treated as 0 (returns One): the annealer only ever
// evaluates exp of a non-positive exponent. The approximation decomposes
// x = k*ln2 + i/16 + r and computes 2^-k * table[i] * (1 - r). From
// x = 17*ln2 (~11.8) on the result is 0: table[i] * (1 - r) is at most
// One = 2^16, so 2^-17 of it truncates away.
func ExpNeg(x Q) Q {
	if x <= 0 {
		return One
	}
	const ln2 Q = 45426 // round(ln(2) * 65536)
	if x >= 17*ln2 {
		return 0
	}
	// Integer count of ln2 halvings.
	k := x / ln2
	x -= k * ln2
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

// ExpNegFloat is a convenience wrapper evaluating exp(-x) for a float
// argument via the fixed-point path; used by tests to quantify the
// approximation error.
func ExpNegFloat(x float64) float64 {
	return ExpNeg(FromFloat(x)).Float()
}

// Sqrt returns the square root of q (q >= 0) in Q16.16 using integer
// Newton iterations. Negative input returns 0. Algorithm 1 applies a
// square root to the perturbation magnitude when deriving move
// distances.
func Sqrt(q Q) Q {
	if q <= 0 {
		return 0
	}
	// sqrt(v / 2^16) * 2^16 == sqrt(v * 2^16) == isqrt(v << 16)
	v := uint64(q) << Shift
	// Initial guess: a power of two >= sqrt(v), so the damped Newton
	// iteration below converges monotonically downward.
	x := uint64(1) << (bits64(v)/2 + 1)
	for i := 0; i < 32; i++ {
		nx := (x + v/x) / 2
		if nx >= x {
			break
		}
		x = nx
	}
	if x > uint64(MaxQ) {
		return MaxQ
	}
	return Q(x)
}

// bits64 returns the position of the highest set bit (0-based); 0 maps
// to 0.
func bits64(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Clamp limits q to [lo, hi].
func Clamp(q, lo, hi Q) Q {
	if q < lo {
		return lo
	}
	if q > hi {
		return hi
	}
	return q
}
