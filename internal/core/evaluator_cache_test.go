package core

import (
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/rng"
)

// uncachedFold is the evaluator's objective computed the way it was
// before the incumbent and per-core discounts were cached: every
// core's penalty evaluated afresh from the domain aggregates, both
// penalised sums folded in core index order.
func uncachedFold(e *Evaluator) float64 {
	if t := e.prob.Contention; t != nil {
		var penG, penR float64
		for j := range e.coreGIPS {
			d := int(t.DomainOf[j])
			pen := t.penalty(d, e.domWs[d]-e.coreWs[j], e.domBw[d]-e.coreBw[j])
			penG += pen * e.coreGIPS[j]
			penR += pen * ratio(e.coreGIPS[j], e.corePow[j], e.prevPopulated[j])
		}
		switch e.prob.Mode {
		case PerCoreRatioSum:
			return penR
		case MaxThroughput:
			return penG
		default:
			if e.sumPow <= 0 {
				return 0
			}
			return penG / e.sumPow
		}
	}
	switch e.prob.Mode {
	case PerCoreRatioSum:
		return e.ratioSum
	case MaxThroughput:
		return e.sumGIPS
	default:
		if e.sumPow <= 0 {
			return 0
		}
		return e.sumGIPS / e.sumPow
	}
}

// checkCaches asserts, bit for bit, that the cached objective equals
// the uncached fold and that every committed per-core pair and cached
// discount equals a fresh evaluation of the core's current members.
func checkCaches(t *testing.T, e *Evaluator, ctx string) {
	t.Helper()
	if got, want := e.Objective(), uncachedFold(e); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: cached objective %v != uncached fold %v", ctx, got, want)
	}
	for j := range e.coreGIPS {
		g, w := e.coreEval(j, e.byCore[j])
		if math.Float64bits(g) != math.Float64bits(e.coreGIPS[j]) || math.Float64bits(w) != math.Float64bits(e.corePow[j]) {
			t.Fatalf("%s: core %d committed (%v, %v), fresh evaluation (%v, %v)", ctx, j, e.coreGIPS[j], e.corePow[j], g, w)
		}
		if c := e.prob.Contention; c != nil {
			d := int(c.DomainOf[j])
			if pen := c.penalty(d, e.domWs[d]-e.coreWs[j], e.domBw[d]-e.coreBw[j]); math.Float64bits(pen) != math.Float64bits(e.pen[j]) {
				t.Fatalf("%s: core %d cached discount %v, fresh %v", ctx, j, e.pen[j], pen)
			}
		}
	}
}

// TestEvaluatorCacheConsistency drives random sequences of previews
// and commits — matched, with no preview, and with a preview of one
// candidate followed by a commit of another — and checks after every
// step that the caches are exact and that Move/Swap return the
// uncached fold's change.
func TestEvaluatorCacheConsistency(t *testing.T) {
	r := rng.New(211)
	for trial := 0; trial < 60; trial++ {
		m := 1 + r.Intn(12)
		n := 1 + r.Intn(7)
		p := randomProblem(r, m, n)
		p.Mode = ObjectiveMode(trial % 3)
		if trial%2 == 1 {
			p.Contention = randomContention(r, m, n)
		}
		alloc := make(Allocation, m)
		for i := range alloc {
			alloc[i] = arch.CoreID(r.Intn(n))
		}
		e, err := NewEvaluator(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		checkCaches(t, e, "reset")
		randMove := func() (int, arch.CoreID) { return r.Intn(m), arch.CoreID(r.Intn(n)) }
		for step := 0; step < 80; step++ {
			// Optionally leave a preview behind: of the committed
			// candidate, or of an unrelated one.
			match := r.Intn(3)
			swap := r.Float64() < 0.5
			i, dst := randMove()
			k := r.Intn(m)
			switch {
			case match == 1 && swap:
				e.SwapDelta(i, k)
			case match == 1:
				e.MoveDelta(i, dst)
			case match == 2:
				oi, odst := randMove()
				if r.Float64() < 0.5 {
					e.SwapDelta(oi, r.Intn(m))
				} else {
					e.MoveDelta(oi, odst)
				}
			}
			checkCaches(t, e, "after preview")
			before := uncachedFold(e)
			var got float64
			if swap {
				got = e.Swap(i, k)
			} else {
				got = e.Move(i, dst)
			}
			checkCaches(t, e, "after commit")
			if want := uncachedFold(e) - before; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: commit returned %v, uncached folds differ by %v", trial, step, got, want)
			}
		}
		// A Reset onto a different allocation must drop the old preview.
		i, dst := randMove()
		e.MoveDelta(i, dst)
		for j := range alloc {
			alloc[j] = arch.CoreID(r.Intn(n))
		}
		if err := e.Reset(p, alloc); err != nil {
			t.Fatal(err)
		}
		e.Move(i, dst)
		checkCaches(t, e, "commit after reset")
	}
}
