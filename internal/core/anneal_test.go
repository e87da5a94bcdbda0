package core

import (
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/rng"
)

func TestAnnealConfigValidate(t *testing.T) {
	good := DefaultAnnealConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*AnnealConfig){
		func(c *AnnealConfig) { c.MaxIter = 0 },
		func(c *AnnealConfig) { c.Perturb = 0 },
		func(c *AnnealConfig) { c.Perturb = 1.5 },
		func(c *AnnealConfig) { c.DeltaPerturb = 0 },
		func(c *AnnealConfig) { c.DeltaPerturb = 1.1 },
		func(c *AnnealConfig) { c.Accept = 0 },
		func(c *AnnealConfig) { c.DeltaAccept = 1.2 },
		func(c *AnnealConfig) { c.SwapFraction = -0.1 },
	}
	for i, mod := range bad {
		c := DefaultAnnealConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad anneal config %d accepted", i)
		}
	}
}

func TestAnnealNeverWorseThanStart(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(r, 6, 4)
		initial := make(Allocation, 6)
		for i := range initial {
			initial[i] = arch.CoreID(r.Intn(4))
		}
		start, err := EvaluateAllocation(p, initial)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultAnnealConfig()
		cfg.Seed = uint64(trial)
		res, err := Anneal(p, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective < start-1e-9 {
			t.Fatalf("trial %d: annealing returned a worse solution: %g < %g", trial, res.Objective, start)
		}
		if !res.Allocation.Valid(4) || len(res.Allocation) != 6 {
			t.Fatalf("invalid result allocation %v", res.Allocation)
		}
	}
}

func TestAnnealReachesNearOptimal(t *testing.T) {
	// Fig. 8's "distance to optimal": on brute-forceable cases the SA
	// solution must land within a few percent of the true optimum.
	r := rng.New(21)
	worst := 0.0
	for trial := 0; trial < 12; trial++ {
		m := 4 + r.Intn(4) // 4..7 threads
		n := 3 + r.Intn(2) // 3..4 cores
		p := randomProblem(r, m, n)
		_, opt, err := BruteForceOptimal(p)
		if err != nil {
			t.Fatal(err)
		}
		initial := make(Allocation, m) // all on core 0: worst-ish start
		cfg := DefaultAnnealConfig()
		cfg.MaxIter = 1024
		cfg.Seed = uint64(trial + 100)
		res, err := Anneal(p, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gap := (opt - res.Objective) / opt * 100
		if gap > worst {
			worst = gap
		}
	}
	if worst > 8 {
		t.Fatalf("worst distance to optimal %.2f%% > 8%%", worst)
	}
	t.Logf("worst distance to optimal across trials: %.2f%%", worst)
}

func TestAnnealDeterministicUnderSeed(t *testing.T) {
	r := rng.New(31)
	p := randomProblem(r, 8, 4)
	initial := make(Allocation, 8)
	cfg := DefaultAnnealConfig()
	cfg.Seed = 42
	a, err := Anneal(p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Fatalf("same seed, different objectives: %g vs %g", a.Objective, b.Objective)
	}
	for i := range a.Allocation {
		if a.Allocation[i] != b.Allocation[i] {
			t.Fatal("same seed, different allocations")
		}
	}
}

func TestAnnealFixedVsFloatQuality(t *testing.T) {
	// The fixed-point acceptance path must not be materially worse than
	// the float path (the paper's claim: fixed-point trades precision
	// "without significantly compromising the quality").
	r := rng.New(41)
	var fixedSum, floatSum float64
	for trial := 0; trial < 8; trial++ {
		p := randomProblem(r, 8, 4)
		initial := make(Allocation, 8)
		cfg := DefaultAnnealConfig()
		cfg.MaxIter = 768
		cfg.Seed = uint64(trial)
		fixed, err := Anneal(p, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.UseFloat = true
		fl, err := Anneal(p, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fixedSum += fixed.Objective
		floatSum += fl.Objective
	}
	if fixedSum < 0.93*floatSum {
		t.Fatalf("fixed-point SA quality %.4g vs float %.4g: more than 7%% worse", fixedSum, floatSum)
	}
}

func TestAnnealSingleThread(t *testing.T) {
	r := rng.New(51)
	p := randomProblem(r, 1, 4)
	res, err := Anneal(p, Allocation{0}, DefaultAnnealConfig())
	if err != nil {
		t.Fatal(err)
	}
	// With one thread the optimum is the single best core; SA must find it.
	_, opt, err := BruteForceOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective < opt-1e-9 {
		t.Fatalf("single-thread SA %.6f < optimum %.6f", res.Objective, opt)
	}
}

func TestAnnealAcceptsSomeDownhill(t *testing.T) {
	// With a warm acceptance schedule, some non-improving moves must be
	// accepted — otherwise it is hill climbing, not annealing.
	r := rng.New(61)
	p := randomProblem(r, 10, 4)
	initial := make(Allocation, 10)
	for i := range initial {
		initial[i] = arch.CoreID(r.Intn(4))
	}
	cfg := DefaultAnnealConfig()
	cfg.MaxIter = 2000
	cfg.Accept = 0.5 // warm
	cfg.DeltaAccept = 0.9999
	res, err := Anneal(p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count improving moves possible from start by hill climbing only:
	// hard to compute exactly, so use the acceptance count as a proxy —
	// it must exceed the number of strict improvements a greedy pass
	// would find (at most m*n = 40 here).
	if res.Accepted <= 40 {
		t.Fatalf("only %d acceptances with a warm schedule; Metropolis path inactive", res.Accepted)
	}
}

func TestGreedyInitial(t *testing.T) {
	r := rng.New(71)
	p := randomProblem(r, 8, 4)
	alloc, err := GreedyInitial(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc) != 8 || !alloc.Valid(4) {
		t.Fatalf("bad greedy allocation %v", alloc)
	}
	zero := make(Allocation, 8)
	zScore, _ := EvaluateAllocation(p, zero)
	gScore, _ := EvaluateAllocation(p, alloc)
	if gScore < zScore {
		t.Fatalf("greedy %.4f worse than all-on-core-0 %.4f", gScore, zScore)
	}
}

func TestScaledMaxIter(t *testing.T) {
	if ScaledMaxIter(2, 4) < 256 {
		t.Fatal("floor violated")
	}
	if ScaledMaxIter(128, 256) > 4096 {
		t.Fatal("cap violated")
	}
	if ScaledMaxIter(8, 16) <= ScaledMaxIter(2, 4) {
		t.Fatal("budget should grow with scale")
	}
}

func TestAnnealConfigString(t *testing.T) {
	c := DefaultAnnealConfig()
	if c.String() == "" {
		t.Fatal("empty config string")
	}
	c.UseFloat = true
	if c.String() == DefaultAnnealConfig().String() {
		t.Fatal("float mode not reflected in string")
	}
}

func BenchmarkAnneal8Threads4Cores(b *testing.B) {
	r := rng.New(81)
	p := randomProblem(r, 8, 4)
	initial := make(Allocation, 8)
	cfg := DefaultAnnealConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Anneal(p, initial, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// saturatedProblem is a random m-thread, n-core problem whose threads
// all demand exactly 1.0, as threads runnable for a whole epoch do.
func saturatedProblem(seed uint64, m, n int) *Problem {
	p := randomProblem(rng.New(seed), m, n)
	for i := range p.Util {
		p.Util[i] = 1
	}
	return p
}

// benchAnneal runs Algorithm 1 on p from initial, one seed per op.
func benchAnneal(b *testing.B, p *Problem, initial Allocation) {
	cfg := DefaultAnnealConfig()
	var a Annealer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := a.Run(p, initial, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnneal8Threads4CoresSaturated is node-quad's shape as the
// controller sees it: every demand exactly 1.0, threads spread two per
// core.
func BenchmarkAnneal8Threads4CoresSaturated(b *testing.B) {
	initial := Allocation{0, 1, 2, 3, 0, 1, 2, 3}
	benchAnneal(b, saturatedProblem(81, 8, 4), initial)
}

// BenchmarkAnneal8Threads6CoresContended is node-contended's shape:
// every demand exactly 1.0, six cores in three 2-core LLC domains.
func BenchmarkAnneal8Threads6CoresContended(b *testing.B) {
	p := saturatedProblem(83, 8, 6)
	p.Contention = pairedContention(rng.New(84), 8, 6)
	initial := Allocation{0, 1, 2, 3, 4, 5, 0, 1}
	benchAnneal(b, p, initial)
}

func BenchmarkAnneal256Threads128Cores(b *testing.B) {
	r := rng.New(91)
	p := randomProblem(r, 256, 128)
	initial := make(Allocation, 256)
	cfg := DefaultAnnealConfig()
	cfg.MaxIter = ScaledMaxIter(128, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Anneal(p, initial, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAnnealRespectsAffinity(t *testing.T) {
	// Every thread pinned to an arbitrary pair of cores: no SA move may
	// violate the mask, and the best solution still respects it.
	r := rng.New(101)
	for trial := 0; trial < 8; trial++ {
		m, n := 8, 4
		p := randomProblem(r, m, n)
		p.Allowed = make([][]bool, m)
		initial := make(Allocation, m)
		for i := 0; i < m; i++ {
			a := r.Intn(n)
			b := (a + 1 + r.Intn(n-1)) % n
			row := make([]bool, n)
			row[a], row[b] = true, true
			p.Allowed[i] = row
			initial[i] = arch.CoreID(a)
		}
		cfg := DefaultAnnealConfig()
		cfg.MaxIter = 800
		cfg.Seed = uint64(trial)
		res, err := Anneal(p, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Allocation {
			if !p.AllowedOn(i, int(c)) {
				t.Fatalf("trial %d: thread %d placed on disallowed core %d", trial, i, c)
			}
		}
	}
}

func TestAnnealFullyPinnedProblem(t *testing.T) {
	// Every thread pinned to exactly one core: SA can change nothing and
	// must return the initial allocation's objective.
	r := rng.New(103)
	m, n := 6, 4
	p := randomProblem(r, m, n)
	p.Allowed = make([][]bool, m)
	initial := make(Allocation, m)
	for i := 0; i < m; i++ {
		row := make([]bool, n)
		c := i % n
		row[c] = true
		p.Allowed[i] = row
		initial[i] = arch.CoreID(c)
	}
	start, err := EvaluateAllocation(p, initial)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Anneal(p, initial, DefaultAnnealConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != start {
		t.Fatalf("fully pinned SA changed the objective: %g -> %g", start, res.Objective)
	}
	for i, c := range res.Allocation {
		if c != initial[i] {
			t.Fatal("fully pinned SA moved a thread")
		}
	}
}

func TestGreedyInitialRespectsAffinity(t *testing.T) {
	r := rng.New(105)
	m, n := 6, 4
	p := randomProblem(r, m, n)
	p.Allowed = make([][]bool, m)
	for i := 0; i < m; i++ {
		row := make([]bool, n)
		row[3] = true   // only the last core allowed — and core 0 is the
		row[0] = i == 0 // greedy start, so threads must be forced off it
		p.Allowed[i] = row
	}
	alloc, err := GreedyInitial(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range alloc {
		if !p.AllowedOn(i, int(c)) {
			t.Fatalf("greedy placed thread %d on disallowed core %d", i, c)
		}
	}
}

func TestBruteForceRespectsAffinity(t *testing.T) {
	r := rng.New(107)
	p := randomProblem(r, 4, 3)
	p.Allowed = [][]bool{
		{true, false, false},
		nil, // unrestricted
		{false, true, true},
		{false, false, true},
	}
	best, score, err := BruteForceOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Fatal("no feasible allocation scored")
	}
	for i, c := range best {
		if !p.AllowedOn(i, int(c)) {
			t.Fatalf("brute force violated affinity at thread %d", i)
		}
	}
}

func TestProblemValidateAffinity(t *testing.T) {
	r := rng.New(109)
	p := randomProblem(r, 3, 2)
	p.Allowed = [][]bool{{true, true}} // wrong row count
	if err := p.Validate(); err == nil {
		t.Fatal("short affinity matrix accepted")
	}
	p.Allowed = [][]bool{{true}, nil, nil} // wrong width
	if err := p.Validate(); err == nil {
		t.Fatal("narrow affinity row accepted")
	}
	p.Allowed = [][]bool{{false, false}, nil, nil} // empty set
	if err := p.Validate(); err == nil {
		t.Fatal("empty affinity set accepted")
	}
	p.Allowed = [][]bool{{true, false}, nil, nil}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
