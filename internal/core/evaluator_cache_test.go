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
			penR += pen * ratio(e.coreGIPS[j], e.corePow[j])
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
		var unsat int32
		for _, i := range e.byCore[j] {
			if e.prob.Util[i] < 1 {
				unsat++
			}
		}
		if unsat != e.unsat[j] {
			t.Fatalf("%s: core %d counts %d members below full demand, its members hold %d", ctx, j, e.unsat[j], unsat)
		}
	}
}

// checkMemo asserts that every edit-memo entry tagged with its core's
// current stamp equals, bit for bit, a fresh coreEval of the member
// list it stands for, and returns how many entries are current.
func checkMemo(t *testing.T, e *Evaluator, ctx string) int {
	t.Helper()
	n := len(e.stamp)
	same := func(edit string, i int, m editMemo, j int, list []int) {
		t.Helper()
		g, w := e.coreEval(j, list)
		if math.Float64bits(g) != math.Float64bits(m.gips) || math.Float64bits(w) != math.Float64bits(m.power) {
			t.Fatalf("%s: memo of core %d %s thread %d holds (%v, %v), fresh evaluation of %v gives (%v, %v)", ctx, j, edit, i, m.gips, m.power, list, g, w)
		}
	}
	current := 0
	for i, c := range e.alloc {
		if m := e.without[i]; m.stamp == e.stamp[c] {
			same("without", i, m, int(c), removeInPlace(append([]int(nil), e.byCore[c]...), i))
			current++
		}
		for j := 0; j < n; j++ {
			m := e.with[i*n+j]
			if m.stamp != e.stamp[j] {
				continue
			}
			if arch.CoreID(j) == c {
				t.Fatalf("%s: memo with thread %d on its own core %d is current", ctx, i, j)
			}
			same("with", i, m, j, append(append([]int(nil), e.byCore[j]...), i))
			current++
		}
	}
	return current
}

// checkPreview asserts that the pairs the last MoveDelta or SwapDelta
// left in the preview equal, bit for bit, fresh coreEval scorings of
// the member lists the commit would leave.
func checkPreview(t *testing.T, e *Evaluator, ctx string) {
	t.Helper()
	pv := &e.pv
	if !pv.ok {
		return
	}
	src, dst := int(e.alloc[pv.i]), int(pv.dst)
	addA, skipB, addB := -1, -1, pv.i
	if pv.swap {
		dst, addA, skipB = int(e.alloc[pv.k]), pv.k, pv.k
	}
	edited := func(j, skip, add int) []int {
		list := removeInPlace(append([]int(nil), e.byCore[j]...), skip)
		if add >= 0 {
			list = append(list, add)
		}
		return list
	}
	for _, c := range []struct {
		j    int
		list []int
		g, w float64
	}{
		{src, edited(src, pv.i, addA), pv.ga, pv.wa},
		{dst, edited(dst, skipB, addB), pv.gb, pv.wb},
	} {
		g, w := e.coreEval(c.j, c.list)
		if math.Float64bits(g) != math.Float64bits(c.g) || math.Float64bits(w) != math.Float64bits(c.w) {
			t.Fatalf("%s: preview of core %d holds (%v, %v), fresh evaluation of %v gives (%v, %v)", ctx, c.j, c.g, c.w, c.list, g, w)
		}
	}
}

// TestEvaluatorCacheConsistency drives random sequences of previews
// and commits — matched, with no preview, and with a preview of one
// candidate followed by a commit of another — and checks after every
// step that the caches and the preview are exact and that Move/Swap
// return the uncached fold's change. Demands are continuous, tied
// with most at exactly 1.0, or all exactly 1.0, so scoreEdit's
// saturated-share table, its reference water-fill, and edits that
// cross 64 members are all held to coreEval.
func TestEvaluatorCacheConsistency(t *testing.T) {
	r := rng.New(211)
	for trial := 0; trial < 90; trial++ {
		m := 1 + r.Intn(12)
		n := 1 + r.Intn(7)
		packed := trial%15 == 14 // one core starts with 60 to 69 members
		if packed {
			m, n = 60+r.Intn(10), 2+r.Intn(2)
		}
		p := randomProblem(r, m, n)
		p.Mode = ObjectiveMode(trial % 3)
		if trial%2 == 1 {
			p.Contention = randomContention(r, m, n)
		}
		// The demand class is independent of the mode and the
		// contention term, so the 90 trials cover all 18 combinations.
		switch trial / 6 % 3 {
		case 1:
			// Tied demands, mostly at full demand, as Mix1's threads.
			for i := range p.Util {
				p.Util[i] = [...]float64{1, 1, 1, 0.5, 0.25}[r.Intn(5)]
			}
		case 2:
			// Every thread runnable for the whole epoch.
			for i := range p.Util {
				p.Util[i] = 1
			}
		}
		alloc := make(Allocation, m)
		if !packed {
			for i := range alloc {
				alloc[i] = arch.CoreID(r.Intn(n))
			}
		}
		e, err := NewEvaluator(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		checkCaches(t, e, "reset")
		checkMemo(t, e, "reset")
		randMove := func() (int, arch.CoreID) { return r.Intn(m), arch.CoreID(r.Intn(n)) }
		served := 0
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
			checkPreview(t, e, "after preview")
			served += checkMemo(t, e, "after preview")
			before := uncachedFold(e)
			var got float64
			if swap {
				got = e.Swap(i, k)
			} else {
				got = e.Move(i, dst)
			}
			checkCaches(t, e, "after commit")
			served += checkMemo(t, e, "after commit")
			if want := uncachedFold(e) - before; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: commit returned %v, uncached folds differ by %v", trial, step, got, want)
			}
		}
		if m > 1 && n > 1 && served == 0 {
			t.Fatalf("trial %d: no memo entry was ever current", trial)
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
		checkMemo(t, e, "commit after reset")
	}
}

// TestEvaluatorMemoNeverServesStaleEdits fills the edit memo, then
// checks the two ways an entry could outlive its core state: a Reset
// to a different problem of the same shape, after which no entry may
// be current, and a thread that leaves its core and returns within one
// run, whose removal must be scored again.
func TestEvaluatorMemoNeverServesStaleEdits(t *testing.T) {
	r := rng.New(977)
	const m, n = 9, 3
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(r, m, n)
		if trial%2 == 1 {
			p.Contention = randomContention(r, m, n)
		}
		alloc := make(Allocation, m)
		for i := range alloc {
			alloc[i] = arch.CoreID(i % n)
		}
		e, err := NewEvaluator(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				e.MoveDelta(i, arch.CoreID(j))
			}
		}
		if got := checkMemo(t, e, "filled"); got != m*n {
			t.Fatalf("trial %d: %d current entries after scoring every move, want %d", trial, got, m*n)
		}

		// Leave and return: thread 0 moves away and back, so its core
		// holds the same members again but must not reuse the removal
		// scored before it left.
		home := e.alloc[0]
		away := (home + 1) % n
		before := e.without[0]
		e.Move(0, away)
		e.Move(0, home)
		if e.without[0].stamp == e.stamp[home] {
			t.Fatalf("trial %d: removal memo of a returned thread is current before re-scoring", trial)
		}
		e.MoveDelta(0, away)
		after := e.without[0]
		if after.stamp == before.stamp || after.stamp != e.stamp[home] {
			t.Fatalf("trial %d: returned thread's removal was not re-scored (stamp %d -> %d, core stamp %d)", trial, before.stamp, after.stamp, e.stamp[home])
		}
		checkMemo(t, e, "after return")

		// Reset to a different problem of the same shape.
		q := randomProblem(r, m, n)
		if err := e.Reset(q, alloc); err != nil {
			t.Fatal(err)
		}
		if got := checkMemo(t, e, "after reset"); got != 0 {
			t.Fatalf("trial %d: %d memo entries survive a Reset", trial, got)
		}
		fresh, err := NewEvaluator(q, alloc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				got, want := e.MoveDelta(i, arch.CoreID(j)), fresh.MoveDelta(i, arch.CoreID(j))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: MoveDelta(%d, %d) after Reset %v, fresh evaluator %v", trial, i, j, got, want)
				}
			}
		}
	}
}
