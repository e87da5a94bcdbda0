package core

import (
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/rng"
)

// toyContention attaches a 2-domain contention term to the 3-core toy
// problem: cores {0,1} share a domain, core 2 is alone.
func toyContention(wsKB, bwGBps float64) *ContentionTerm {
	return &ContentionTerm{
		DomainOf:    []int32{0, 0, 1},
		DomLLCKB:    []float64{1024, 512},
		DomBWGBps:   []float64{8, 8},
		WsKB:        []float64{wsKB, wsKB, wsKB, wsKB},
		BwGBps:      []float64{bwGBps, bwGBps, bwGBps, bwGBps},
		MissSlope:   0.9,
		PressureCap: 2,
		MaxBWUtil:   0.9,
	}
}

// randomContention builds a valid random term for an m-thread, n-core
// problem, with a round-robin domain partition.
func randomContention(r *rng.Rand, m, n int) *ContentionTerm {
	nd := 1 + r.Intn(n)
	t := &ContentionTerm{
		DomainOf:    make([]int32, n),
		DomLLCKB:    make([]float64, nd),
		DomBWGBps:   make([]float64, nd),
		WsKB:        make([]float64, m),
		BwGBps:      make([]float64, m),
		MissSlope:   0.2 + r.Float64()*2,
		PressureCap: 1 + r.Float64()*3,
		MaxBWUtil:   0.5 + r.Float64()*0.4,
	}
	for j := 0; j < n; j++ {
		t.DomainOf[j] = int32(j % nd)
	}
	for d := 0; d < nd; d++ {
		t.DomLLCKB[d] = 256 + r.Float64()*4096
		t.DomBWGBps[d] = 1 + r.Float64()*15
	}
	for i := 0; i < m; i++ {
		t.WsKB[i] = r.Float64() * 8192
		t.BwGBps[i] = r.Float64() * 4
	}
	return t
}

// pairedContention builds a valid random term for an m-thread, n-core
// problem whose LLC domains are pairs of adjacent cores ({0,1}, {2,3},
// ...), as on HexaDualCluster: a move or swap between two domains
// leaves both cores' own discounts unshifted, one within a pair does
// not.
func pairedContention(r *rng.Rand, m, n int) *ContentionTerm {
	t := randomContention(r, m, n)
	nd := (n + 1) / 2
	for j := range t.DomainOf {
		t.DomainOf[j] = int32(j / 2)
	}
	t.DomLLCKB, t.DomBWGBps = t.DomLLCKB[:0], t.DomBWGBps[:0]
	for d := 0; d < nd; d++ {
		t.DomLLCKB = append(t.DomLLCKB, 256+r.Float64()*4096)
		t.DomBWGBps = append(t.DomBWGBps, 1+r.Float64()*15)
	}
	return t
}

func TestContentionTermValidateRejects(t *testing.T) {
	bad := []func(*ContentionTerm){
		func(c *ContentionTerm) { c.DomainOf = c.DomainOf[:2] },   // wrong core count
		func(c *ContentionTerm) { c.DomainOf[1] = 5 },             // domain out of range
		func(c *ContentionTerm) { c.DomainOf[1] = -1 },            // negative domain
		func(c *ContentionTerm) { c.DomLLCKB = nil },              // no domains
		func(c *ContentionTerm) { c.DomLLCKB[0] = 0 },             // non-positive capacity
		func(c *ContentionTerm) { c.DomBWGBps = c.DomBWGBps[:1] }, // shape mismatch
		func(c *ContentionTerm) { c.DomBWGBps[1] = -2 },           // negative bandwidth
		func(c *ContentionTerm) { c.WsKB = c.WsKB[:1] },           // wrong thread count
		func(c *ContentionTerm) { c.WsKB[3] = -1 },                // negative footprint
		func(c *ContentionTerm) { c.WsKB[0] = math.NaN() },        // non-finite footprint
		func(c *ContentionTerm) { c.BwGBps[2] = math.Inf(1) },     // non-finite demand
		func(c *ContentionTerm) { c.MissSlope = -0.1 },            // negative slope
		func(c *ContentionTerm) { c.PressureCap = 0 },             // no cap
		func(c *ContentionTerm) { c.MaxBWUtil = 1 },               // util clamp must be < 1
	}
	for i, mod := range bad {
		p := toyProblem()
		p.Contention = toyContention(512, 1)
		mod(p.Contention)
		if err := p.Validate(); err == nil {
			t.Errorf("bad contention term %d accepted", i)
		}
	}
	p := toyProblem()
	p.Contention = toyContention(512, 1)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid term rejected: %v", err)
	}
}

// TestContentionZeroFootprintExact: a term whose threads have zero
// footprint and zero bandwidth demand yields penalty factors of exactly
// 1, so the objective is bit-identical to the term-free problem — the
// optimizer half of the §15 byte-identity invariant.
func TestContentionZeroFootprintExact(t *testing.T) {
	allocs := []Allocation{{0, 0, 0, 0}, {0, 1, 2, 2}, {2, 1, 0, 1}}
	for _, mode := range []ObjectiveMode{GlobalRatio, PerCoreRatioSum, MaxThroughput} {
		for _, a := range allocs {
			plain := toyProblem()
			plain.Mode = mode
			want, err := EvaluateAllocation(plain, a)
			if err != nil {
				t.Fatal(err)
			}
			cont := toyProblem()
			cont.Mode = mode
			cont.Contention = toyContention(0, 0)
			got, err := EvaluateAllocation(cont, a)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("mode %v alloc %v: zero-footprint term shifted objective %v -> %v", mode, a, want, got)
			}
		}
	}
}

// TestContentionPenalizesCoLocation: with a heavy shared footprint, the
// contention term must make packing both hot threads into one LLC
// domain score worse than separating them across domains, all else
// equal.
func TestContentionPenalizesCoLocation(t *testing.T) {
	p := toyProblem()
	p.Contention = toyContention(2048, 4)
	packed, err := EvaluateAllocation(p, Allocation{0, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same cores, but thread 1 crosses into core 2's singleton domain.
	split, err := EvaluateAllocation(p, Allocation{0, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	plain := toyProblem()
	packedPlain, _ := EvaluateAllocation(plain, Allocation{0, 1, 2, 2})
	splitPlain, _ := EvaluateAllocation(plain, Allocation{0, 2, 2, 2})
	// The term must shift the comparison toward splitting relative to
	// the contention-blind objective.
	if split/packed <= splitPlain/packedPlain {
		t.Fatalf("contention term did not reward domain separation: %v/%v vs plain %v/%v",
			split, packed, splitPlain, packedPlain)
	}
}

// TestContentionObjectiveMonotoneInFootprint: growing every thread's
// working set and bandwidth demand never raises the objective.
func TestContentionObjectiveMonotoneInFootprint(t *testing.T) {
	alloc := Allocation{0, 1, 2, 0}
	prev := math.Inf(1)
	for _, ws := range []float64{0, 256, 1024, 4096, 16384} {
		p := toyProblem()
		p.Contention = toyContention(ws, ws/512)
		got, err := EvaluateAllocation(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		if !(got > 0) || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("objective %v at ws %g not positive finite", got, ws)
		}
		if got > prev {
			t.Fatalf("objective rose with footprint: %v after %v at ws %g", got, prev, ws)
		}
		prev = got
	}
}

// recomputedObjectiveWithCont is objectiveWithCont with every discount
// in the two touched domains recomputed from the domain aggregates and
// the shifts, as it was before the cached discounts of cores no shift
// reaches were reused.
func recomputedObjectiveWithCont(e *Evaluator, a, b int, ga, wa, gb, wb, dwsA, dbwA, dwsB, dbwB float64) float64 {
	t := e.prob.Contention
	da, db := t.DomainOf[a], t.DomainOf[b]
	var s float64
	for j, pen := range e.pen {
		g, w := e.coreGIPS[j], e.corePow[j]
		if j == a {
			g, w = ga, wa
		} else if j == b {
			g, w = gb, wb
		}
		if d := t.DomainOf[j]; d == da || d == db {
			ws := e.domWs[d] - e.coreWs[j]
			bw := e.domBw[d] - e.coreBw[j]
			if d == da && j != a {
				ws += dwsA
				bw += dbwA
			}
			if d == db && j != b {
				ws += dwsB
				bw += dbwB
			}
			pen = t.penalty(int(d), ws, bw)
		}
		s += e.contTerm(pen, g, w)
	}
	return e.contFinish(s, e.sumPow-e.corePow[a]-e.corePow[b]+wa+wb)
}

// TestContentionIncrementalMatchesScratch is the §4 evaluator
// equivalence property with a contention term attached: previews equal
// a recomputation of every touched discount bit for bit and applied
// deltas within rounding, and the incrementally maintained objective
// equals a scratch evaluation after every mutation. The last trials
// put six cores in three 2-core LLC domains, as on HexaDualCluster, so
// moves and swaps within and between domains both occur, half of them
// with every demand at exactly 1.0.
func TestContentionIncrementalMatchesScratch(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		m := 2 + r.Intn(10)
		n := 2 + r.Intn(5)
		if trial >= 20 {
			n = 6
		}
		p := randomProblem(r, m, n)
		if trial < 20 {
			p.Contention = randomContention(r, m, n)
		} else {
			p.Contention = pairedContention(r, m, n)
			if trial%2 == 1 {
				for i := range p.Util {
					p.Util[i] = 1
				}
			}
		}
		if trial%3 == 0 {
			p.Mode = ObjectiveMode(trial / 3 % 3)
		}
		alloc := make(Allocation, m)
		for i := range alloc {
			alloc[i] = arch.CoreID(r.Intn(n))
		}
		e, err := NewEvaluator(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		c := p.Contention
		for step := 0; step < 30; step++ {
			if r.Float64() < 0.5 {
				i := r.Intn(m)
				dst := arch.CoreID(r.Intn(n))
				src := e.alloc[i]
				pre := e.MoveDelta(i, dst)
				if src != dst {
					pv := &e.pv
					want := recomputedObjectiveWithCont(e, int(src), int(dst), pv.ga, pv.wa, pv.gb, pv.wb,
						-c.WsKB[i], -c.BwGBps[i], c.WsKB[i], c.BwGBps[i]) - e.obj
					if math.Float64bits(pre) != math.Float64bits(want) {
						t.Fatalf("trial %d step %d: MoveDelta(%d, %d) %v, recomputed discounts give %v", trial, step, i, dst, pre, want)
					}
				}
				got := e.Move(i, dst)
				if math.Abs(pre-got) > 1e-9 {
					t.Fatalf("MoveDelta %g != Move %g", pre, got)
				}
			} else {
				i, j := r.Intn(m), r.Intn(m)
				ci, cj := e.alloc[i], e.alloc[j]
				pre := e.SwapDelta(i, j)
				if ci != cj {
					pv := &e.pv
					want := recomputedObjectiveWithCont(e, int(ci), int(cj), pv.ga, pv.wa, pv.gb, pv.wb,
						c.WsKB[j]-c.WsKB[i], c.BwGBps[j]-c.BwGBps[i],
						c.WsKB[i]-c.WsKB[j], c.BwGBps[i]-c.BwGBps[j]) - e.obj
					if math.Float64bits(pre) != math.Float64bits(want) {
						t.Fatalf("trial %d step %d: SwapDelta(%d, %d) %v, recomputed discounts give %v", trial, step, i, j, pre, want)
					}
				}
				got := e.Swap(i, j)
				if math.Abs(pre-got) > 1e-9 {
					t.Fatalf("SwapDelta %g != Swap %g", pre, got)
				}
			}
			scratch, err := EvaluateAllocation(p, e.Allocation())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(scratch-e.Objective()) > 1e-6*(1+math.Abs(scratch)) {
				t.Fatalf("incremental %.9f != scratch %.9f at step %d (trial %d)", e.Objective(), scratch, step, trial)
			}
		}
	}
}
