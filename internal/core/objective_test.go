package core

import (
	"math"
	"testing"
	"testing/quick"

	"smartbalance/internal/arch"
	"smartbalance/internal/rng"
)

// toyProblem builds a 4-thread, 3-core problem with hand-set values.
func toyProblem() *Problem {
	return &Problem{
		IPS: [][]float64{
			{4e9, 2e9, 1e9},
			{3e9, 2.5e9, 0.8e9},
			{1e9, 0.9e9, 0.85e9},
			{2e9, 1.5e9, 0.5e9},
		},
		Power: [][]float64{
			{8, 1.4, 0.1},
			{7, 1.2, 0.09},
			{6, 1.0, 0.08},
			{7.5, 1.3, 0.1},
		},
		Util:      []float64{1, 1, 0.5, 0.2},
		IdlePower: []float64{0.2, 0.05, 0.01},
	}
}

func randomProblem(r *rng.Rand, m, n int) *Problem {
	p := &Problem{
		IPS:       make([][]float64, m),
		Power:     make([][]float64, m),
		Util:      make([]float64, m),
		IdlePower: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.IdlePower[j] = 0.01 + r.Float64()*0.2
	}
	for i := 0; i < m; i++ {
		p.IPS[i] = make([]float64, n)
		p.Power[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			p.IPS[i][j] = (0.2 + r.Float64()*4) * 1e9
			p.Power[i][j] = 0.05 + r.Float64()*8
		}
		p.Util[i] = 0.05 + r.Float64()*0.95
	}
	return p
}

func TestProblemValidate(t *testing.T) {
	if err := toyProblem().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Problem){
		func(p *Problem) { p.IPS = nil },
		func(p *Problem) { p.IdlePower = nil },
		func(p *Problem) { p.Util = p.Util[:2] },
		func(p *Problem) { p.IPS[1] = p.IPS[1][:1] },
		func(p *Problem) { p.Util[0] = 1.5 },
		func(p *Problem) { p.Power[2][1] = -1 },
		func(p *Problem) { p.Weights = []float64{1} },
	}
	for i, mod := range bad {
		p := toyProblem()
		mod(p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

// TestProblemValidateRejectsNonFinite: every float input must be
// finite. Each range check is a < or > comparison, which NaN fails
// silently, so before the finiteness checks a NaN utilisation
// validated and Anneal returned a NaN objective.
func TestProblemValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(p *Problem, v float64)
	}{
		{"util", func(p *Problem, v float64) { p.Util[2] = v }},
		{"ips", func(p *Problem, v float64) { p.IPS[1][2] = v }},
		{"power", func(p *Problem, v float64) { p.Power[3][0] = v }},
		{"idle-power", func(p *Problem, v float64) { p.IdlePower[1] = v }},
		{"weight", func(p *Problem, v float64) { p.Weights[0] = v }},
		{"llc-capacity", func(p *Problem, v float64) { p.Contention.DomLLCKB[1] = v }},
		{"bw-capacity", func(p *Problem, v float64) { p.Contention.DomBWGBps[0] = v }},
		{"miss-slope", func(p *Problem, v float64) { p.Contention.MissSlope = v }},
		{"pressure-cap", func(p *Problem, v float64) { p.Contention.PressureCap = v }},
		{"max-bw-util", func(p *Problem, v float64) { p.Contention.MaxBWUtil = v }},
	}
	valid := func() *Problem {
		p := toyProblem()
		p.Weights = []float64{1, 0.5, 2}
		p.Contention = toyContention(512, 1)
		return p
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := valid()
			f.set(p, v)
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
	}
	p := toyProblem()
	p.Util[0] = math.NaN()
	if res, err := Anneal(p, Allocation{0, 1, 2, 0}, DefaultAnnealConfig()); err == nil {
		t.Fatalf("Anneal accepted a NaN utilisation (objective %v)", res.Objective)
	}
}

func TestCoreShareWaterFilling(t *testing.T) {
	// Demands below the fair share are met exactly; the rest split the
	// remainder.
	shares := coreShare([]float64{0.1, 1, 1})
	if math.Abs(shares[0]-0.1) > 1e-12 {
		t.Fatalf("light thread share %g", shares[0])
	}
	if math.Abs(shares[1]-0.45) > 1e-12 || math.Abs(shares[2]-0.45) > 1e-12 {
		t.Fatalf("heavy shares %v", shares)
	}
	// Total never exceeds capacity.
	total := shares[0] + shares[1] + shares[2]
	if total > 1+1e-12 {
		t.Fatalf("shares exceed capacity: %g", total)
	}
}

func TestCoreShareAllLight(t *testing.T) {
	shares := coreShare([]float64{0.2, 0.3})
	if shares[0] != 0.2 || shares[1] != 0.3 {
		t.Fatalf("light demands should be met: %v", shares)
	}
}

func TestCoreShareSaturated(t *testing.T) {
	shares := coreShare([]float64{1, 1, 1, 1})
	for _, s := range shares {
		if math.Abs(s-0.25) > 1e-12 {
			t.Fatalf("saturated shares %v", shares)
		}
	}
}

func TestCoreShareEmpty(t *testing.T) {
	if len(coreShare(nil)) != 0 {
		t.Fatal("empty core should have no shares")
	}
}

// fastShares runs scoreEdit's general water-fill: demands
// insertion-sorted as they are read, then fairShares with the
// saturated-share table's first column.
func fastShares(utils []float64) []float64 {
	demand := make([]float64, len(utils))
	idx := make([]int, len(utils))
	for k, u := range utils {
		insertDemand(demand, idx, k, u)
	}
	shares := make([]float64, len(utils))
	fairShares(shares, demand, idx)
	return shares
}

func TestCoreShareProperty(t *testing.T) {
	// For any demands, shares are within [0, demand] and sum <= 1, and
	// the evaluator's fast water-fill reproduces them bit for bit.
	// Demands take 256 levels, so ties are common, and lists run past
	// the first-share table.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		utils := make([]float64, len(raw))
		for i, v := range raw {
			utils[i] = float64(v) / 255
		}
		shares := coreShare(utils)
		fast := fastShares(utils)
		sum := 0.0
		for i, s := range shares {
			if math.Float64bits(fast[i]) != math.Float64bits(s) {
				return false
			}
			if s < -1e-12 || s > utils[i]+1e-12 {
				return false
			}
			sum += s
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// The saturated-share table: each row is the reference water-fill
	// of k demands of exactly 1.0.
	for k := 1; k < len(satShares); k++ {
		ones := make([]float64, k)
		for i := range ones {
			ones[i] = 1
		}
		for i, s := range coreShare(ones) {
			if math.Float64bits(satShares[k][i]) != math.Float64bits(s) {
				t.Fatalf("k=%d: table share %d is %v, reference %v", k, i, satShares[k][i], s)
			}
		}
	}
	// Tied demands, mostly at full demand, at every length the table
	// covers and past it.
	pattern := []float64{1, 0.5, 1, 1, 0.25, 1, 0.75, 0.02}
	for n := 1; n <= len(satShares)+2; n++ {
		for _, mixed := range []bool{false, true} {
			utils := make([]float64, n)
			for i := range utils {
				utils[i] = 1
				if mixed {
					utils[i] = pattern[i%len(pattern)]
				}
			}
			shares, fast := coreShare(utils), fastShares(utils)
			for i := range shares {
				if math.Float64bits(fast[i]) != math.Float64bits(shares[i]) {
					t.Fatalf("n=%d mixed=%v: fast share %d is %v, reference %v", n, mixed, i, fast[i], shares[i])
				}
			}
		}
	}
}

func TestEmptyCoreSemanticsPerMode(t *testing.T) {
	// PerCoreRatioSum: an empty core contributes exactly 0 (Eq. 11 with
	// IPS_j = 0), so packing everything onto core 0 scores the same as
	// core 0's own ratio.
	p := toyProblem()
	p.Mode = PerCoreRatioSum
	packed, err := EvaluateAllocation(p, Allocation{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if packed <= 0 {
		t.Fatal("non-empty allocation scored zero")
	}
	// GlobalRatio: empty cores still burn their quiescent power in the
	// denominator, so raising an idle core's IdlePower must lower J.
	p2 := toyProblem() // GlobalRatio by default
	base, _ := EvaluateAllocation(p2, Allocation{0, 0, 0, 0})
	p3 := toyProblem()
	p3.IdlePower[2] *= 100
	loaded, _ := EvaluateAllocation(p3, Allocation{0, 0, 0, 0})
	if loaded >= base {
		t.Fatalf("idle power ignored in global mode: %g >= %g", loaded, base)
	}
}

func TestGlobalModeRewardsGatingHungryCores(t *testing.T) {
	// The decisive difference between the modes: with a power-hungry
	// core 0, moving its thread to the efficient core 2 must raise the
	// global objective even though it empties core 0.
	p := toyProblem()
	spread, _ := EvaluateAllocation(p, Allocation{0, 1, 2, 2})
	gated, _ := EvaluateAllocation(p, Allocation{2, 1, 2, 2})
	if gated <= spread {
		t.Fatalf("global mode should reward sleeping the 8W core: gated %g <= spread %g", gated, spread)
	}
	// And the relative gain must be substantial here (the 8W core was
	// producing 4 GIPS out of ~5 GIPS total but eating ~85% of the power).
	if gated < 1.5*spread {
		t.Fatalf("gating gain implausibly small: %g vs %g", gated, spread)
	}
}

func TestOptimalBeatsCapabilityBlindSpread(t *testing.T) {
	// The vanilla balancer's even spread (one thread per core by count,
	// ignoring types) must be beatable by the J_E optimum — this gap is
	// the paper's entire opportunity.
	p := toyProblem()
	even, err := EvaluateAllocation(p, Allocation{0, 1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, best, err := BruteForceOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if best <= even*1.05 {
		t.Fatalf("optimum %.4f barely beats blind spread %.4f; no heterogeneity signal", best, even)
	}
}

func TestWeightsScaleContribution(t *testing.T) {
	p := toyProblem()
	base, _ := EvaluateAllocation(p, Allocation{0, 1, 2, 2})
	p.Weights = []float64{2, 1, 1}
	weighted, _ := EvaluateAllocation(p, Allocation{0, 1, 2, 2})
	if weighted <= base {
		t.Fatal("doubling a used core's weight must raise the objective")
	}
}

func TestEvaluatorIncrementalMatchesScratch(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		m := 2 + r.Intn(10)
		n := 2 + r.Intn(5)
		p := randomProblem(r, m, n)
		alloc := make(Allocation, m)
		for i := range alloc {
			alloc[i] = arch.CoreID(r.Intn(n))
		}
		e, err := NewEvaluator(p, alloc)
		if err != nil {
			t.Fatal(err)
		}
		// A sequence of random moves and swaps; after each, the
		// incremental objective must equal a scratch evaluation.
		for step := 0; step < 30; step++ {
			if r.Float64() < 0.5 {
				i := r.Intn(m)
				dst := arch.CoreID(r.Intn(n))
				pre := e.MoveDelta(i, dst)
				got := e.Move(i, dst)
				if math.Abs(pre-got) > 1e-9 {
					t.Fatalf("MoveDelta %g != Move %g", pre, got)
				}
			} else {
				i, j := r.Intn(m), r.Intn(m)
				pre := e.SwapDelta(i, j)
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
				t.Fatalf("incremental %.9f != scratch %.9f at step %d", e.Objective(), scratch, step)
			}
		}
	}
}

func TestEvaluatorRejectsBadInput(t *testing.T) {
	p := toyProblem()
	if _, err := NewEvaluator(p, Allocation{0}); err == nil {
		t.Fatal("short allocation accepted")
	}
	if _, err := NewEvaluator(p, Allocation{0, 0, 0, 9}); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	bad := toyProblem()
	bad.Util[0] = -1
	if _, err := NewEvaluator(bad, Allocation{0, 0, 0, 0}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestBruteForceOptimal(t *testing.T) {
	p := toyProblem()
	best, score, err := BruteForceOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 4 {
		t.Fatalf("allocation length %d", len(best))
	}
	// No allocation may beat it (exhaustive cross-check on a subsample).
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		alloc := make(Allocation, 4)
		for i := range alloc {
			alloc[i] = arch.CoreID(r.Intn(3))
		}
		s, _ := EvaluateAllocation(p, alloc)
		if s > score+1e-12 {
			t.Fatalf("brute force missed a better allocation: %v scores %g > %g", alloc, s, score)
		}
	}
}

func TestBruteForceInfeasibleRejected(t *testing.T) {
	r := rng.New(9)
	p := randomProblem(r, 30, 8) // 8^30 states
	if _, _, err := BruteForceOptimal(p); err == nil {
		t.Fatal("infeasible brute force accepted")
	}
}

// Benchmarks for the incremental-vs-scratch objective evaluation — the
// paper's "obtaining a new evaluation only by performing computations
// induced by the latest swap on Ψ" optimisation, quantified.

func BenchmarkMoveDeltaIncremental(b *testing.B) {
	r := rng.New(201)
	p := randomProblem(r, 32, 8)
	alloc := make(Allocation, 32)
	for i := range alloc {
		alloc[i] = arch.CoreID(r.Intn(8))
	}
	e, err := NewEvaluator(p, alloc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Move(i%32, arch.CoreID(i%8))
	}
}

func BenchmarkMoveScratchReevaluation(b *testing.B) {
	r := rng.New(202)
	p := randomProblem(r, 32, 8)
	alloc := make(Allocation, 32)
	for i := range alloc {
		alloc[i] = arch.CoreID(r.Intn(8))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc[i%32] = arch.CoreID(i % 8)
		if _, err := EvaluateAllocation(p, alloc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMaxThroughputModePrefersFastCores(t *testing.T) {
	// Under the throughput goal the optimum loads the fastest cores
	// regardless of power; for the toy problem, thread 0 (4 GIPS on
	// core 0) must land on core 0 in the brute-force optimum.
	p := toyProblem()
	p.Mode = MaxThroughput
	best, score, err := BruteForceOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if best[0] != 0 {
		t.Fatalf("throughput optimum put thread 0 on core %d", best[0])
	}
	if score <= 0 {
		t.Fatal("no throughput scored")
	}
	// The mode string is distinct.
	if MaxThroughput.String() != "max-throughput" {
		t.Fatal("mode string wrong")
	}
	// Incremental evaluation must match scratch in this mode too.
	e, err := NewEvaluator(p, Allocation{0, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Move(1, 2)
	scratch, _ := EvaluateAllocation(p, e.Allocation())
	if math.Abs(scratch-e.Objective()) > 1e-9 {
		t.Fatalf("throughput mode incremental %.9f != scratch %.9f", e.Objective(), scratch)
	}
}
