package fixedpt

import (
	"math"
	"testing"
)

// Fuzz targets: the fixed-point primitives must stay within their
// contracts for arbitrary inputs (run with `go test -fuzz=FuzzExpNeg`
// etc.; the seed corpus executes under plain `go test`).

func FuzzExpNeg(f *testing.F) {
	for _, seed := range []int32{0, 1, -1, 65536, 1 << 20, -(1 << 20), 1<<31 - 1, -1 << 31} {
		f.Add(seed)
	}
	for _, edge := range expNegEdges {
		f.Add(int32(edge))
	}
	f.Fuzz(func(t *testing.T, raw int32) {
		q := Q(raw)
		v := ExpNeg(q)
		if v < 0 || v > One {
			t.Fatalf("ExpNeg(%d) = %d outside [0, One]", raw, v)
		}
		if want := expNegLoop(q); v != want {
			t.Fatalf("ExpNeg(%d) = %d, loop form gives %d", raw, v, want)
		}
		// Reference comparison where the argument is in the useful range.
		x := q.Float()
		if x >= 0 && x <= 6 {
			want := math.Exp(-x)
			got := v.Float()
			if math.Abs(got-want) > 0.04*want+2e-4 {
				t.Fatalf("ExpNeg(%g) = %g, want ~%g", x, got, want)
			}
		}
	})
}

func FuzzSqrt(f *testing.F) {
	for _, seed := range []int32{0, 1, 65536, 1 << 30, 1<<31 - 1, -5} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw int32) {
		q := Q(raw)
		s := Sqrt(q)
		if s < 0 {
			t.Fatalf("Sqrt(%d) negative", raw)
		}
		if q > 0 {
			back := Mul(s, s).Float()
			want := q.Float()
			if math.Abs(back-want) > 0.05*(want+1) {
				t.Fatalf("Sqrt(%g)^2 = %g", want, back)
			}
		}
	})
}

func FuzzArithmeticSaturates(f *testing.F) {
	f.Add(int32(5), int32(7))
	f.Add(int32(1<<31-1), int32(1<<31-1))
	f.Add(int32(-1<<31), int32(1))
	f.Fuzz(func(t *testing.T, a, b int32) {
		qa, qb := Q(a), Q(b)
		for _, v := range []Q{Add(qa, qb), Sub(qa, qb), Mul(qa, qb), Div(qa, qb)} {
			if v > MaxQ || v < MinQ {
				t.Fatalf("result %d escaped the representable range", v)
			}
		}
	})
}
