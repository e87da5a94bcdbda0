package hunt

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"smartbalance/internal/fleet"
	"smartbalance/internal/rng"
	"smartbalance/internal/sweep"
	"smartbalance/internal/workload"
)

// healthyNode is the canonical node genome: the seed population's base
// candidate, which the landscape probes show violates nothing.
func healthyNode() Candidate {
	return Candidate{Tier: TierNode, Node: &NodeGenome{
		Platform:   "biglittle",
		Threads:    4,
		DurationMs: 100,
		Seed:       1,
		Synth:      workload.DefaultSynth(),
	}}
}

// p99Violator is a fleet genome known to blow the default p99 SLO:
// two quad nodes cannot keep up with a 450 req/s uniform stream.
func p99Violator() Candidate {
	return Candidate{Tier: TierFleet, Fleet: &FleetGenome{
		Nodes:      2,
		Profile:    "quad",
		Policy:     "energy",
		Arrival:    fleet.ArrivalSpec{Kind: "uniform", Rate: 450},
		Seed:       1,
		DurationMs: 600,
	}}
}

func TestHuntDeterministicAcrossWorkersAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full hunt in -short mode")
	}
	cacheDir := t.TempDir()
	cache, err := sweep.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, cache *sweep.Cache) (string, *Result) {
		var log bytes.Buffer
		res, err := Run(Config{
			Seed: 42, Generations: 2, Population: 8,
			Workers: workers, Cache: cache, Log: &log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return log.String(), res
	}
	logSerial, resSerial := run(1, nil)
	logPar, resPar := run(4, cache)
	logWarm, resWarm := run(4, cache)
	if logSerial != logPar {
		t.Errorf("serial and parallel hunt logs differ:\n--- serial\n%s\n--- parallel\n%s", logSerial, logPar)
	}
	if logPar != logWarm {
		t.Errorf("cold and warm-cache hunt logs differ")
	}
	if !reflect.DeepEqual(resSerial, resPar) || !reflect.DeepEqual(resPar, resWarm) {
		t.Errorf("hunt results differ across workers/cache settings")
	}
	if resSerial.Evaluated != 16 {
		t.Errorf("Evaluated = %d, want 16 (2 gens x 8 pop)", resSerial.Evaluated)
	}
}

func TestMutateAlwaysValidNeverAliases(t *testing.T) {
	r := rng.New(0xBEEF)
	bases := []Candidate{
		healthyNode(),
		{Tier: TierFleet, Fleet: &FleetGenome{
			Nodes: 6, Profile: "quad,biglittle", Policy: "energy",
			Arrival: defaultArrival("bursty", 300), Seed: 1, DurationMs: 300,
		}},
	}
	for _, base := range bases {
		baseKey := base.Key()
		cur := base
		for i := 0; i < 500; i++ {
			next := Mutate(r, cur)
			if err := next.Validate(); err != nil {
				t.Fatalf("mutation %d of %s tier produced invalid candidate: %v\n%s",
					i, base.Tier, err, next.Key())
			}
			cur = next
		}
		if base.Key() != baseKey {
			t.Errorf("%s tier base mutated in place — clone aliases the parent", base.Tier)
		}
	}
}

func TestSeedPopulationDeterministicAndValid(t *testing.T) {
	p1 := seedPopulation(rng.New(99), 12, []string{TierNode, TierFleet})
	p2 := seedPopulation(rng.New(99), 12, []string{TierNode, TierFleet})
	if len(p1) != 12 {
		t.Fatalf("population size = %d, want 12", len(p1))
	}
	tiers := map[string]int{}
	for i := range p1 {
		if p1[i].Key() != p2[i].Key() {
			t.Errorf("candidate %d differs across identically seeded populations", i)
		}
		if err := p1[i].Validate(); err != nil {
			t.Errorf("seed candidate %d invalid: %v", i, err)
		}
		tiers[p1[i].Tier]++
	}
	if tiers[TierNode] == 0 || tiers[TierFleet] == 0 {
		t.Errorf("seed population missing a tier: %v", tiers)
	}
}

func TestEvaluatorHealthyCandidateHasNoViolations(t *testing.T) {
	e := &Evaluator{SLO: DefaultSLO(), Margin: 0.02}
	ev := e.Evaluate(healthyNode())
	if ev.Err != nil {
		t.Fatal(ev.Err)
	}
	for _, v := range ev.Violations {
		if v.Score >= 0 {
			t.Errorf("healthy candidate violates %s: score=%v detail=%s", v.Objective, v.Score, v.Detail)
		}
	}
}

func TestEvaluatorFindsP99Violation(t *testing.T) {
	e := &Evaluator{SLO: DefaultSLO(), Margin: 0.02}
	ev := e.Evaluate(p99Violator())
	if ev.Err != nil {
		t.Fatal(ev.Err)
	}
	found := false
	for _, v := range ev.Violations {
		if v.Objective == ObjP99SLO {
			found = true
			if v.Score < 0 {
				t.Errorf("p99 violator scored %v on %s, want >= 0 (%s)", v.Score, v.Objective, v.Detail)
			}
		}
	}
	if !found {
		t.Errorf("no %s violation reported: %+v", ObjP99SLO, ev.Violations)
	}
}

func TestMinimizeShrinksAndIsDeterministic(t *testing.T) {
	big := Candidate{Tier: TierFleet, Fleet: &FleetGenome{
		Nodes:      6,
		Profile:    "quad,biglittle",
		Policy:     "energy",
		Arrival:    fleet.ArrivalSpec{Kind: "bursty", Rate: 490.8, Burst: 6, PBurst: 0.08, PCalm: 0.1776},
		Seed:       1,
		DurationMs: 500,
	}}
	e := &Evaluator{SLO: DefaultSLO(), Margin: 0.02}
	m1 := Minimize(e, big, ObjP99SLO)
	if m1.Violation.Objective != ObjP99SLO {
		t.Fatalf("minimizer lost the violation: %+v", m1.Violation)
	}
	if m1.Steps == 0 {
		t.Errorf("minimizer accepted no reductions on an oversized counterexample")
	}
	if m1.Cand.Fleet.Nodes > big.Fleet.Nodes {
		t.Errorf("minimized nodes grew: %d > %d", m1.Cand.Fleet.Nodes, big.Fleet.Nodes)
	}
	if m1.Cand.Fleet.Seed != big.Fleet.Seed {
		t.Errorf("minimizer changed the seed — the seed is never an axis")
	}
	m2 := Minimize(e, big, ObjP99SLO)
	if m1.Cand.Key() != m2.Cand.Key() || m1.Steps != m2.Steps || m1.Evals != m2.Evals {
		t.Errorf("minimization not deterministic:\n%s steps=%d evals=%d\n%s steps=%d evals=%d",
			m1.Cand.Key(), m1.Steps, m1.Evals, m2.Cand.Key(), m2.Steps, m2.Evals)
	}
}

func TestMinimizeNonViolatorReturnsUnshrunk(t *testing.T) {
	e := &Evaluator{SLO: DefaultSLO(), Margin: 0.02}
	m := Minimize(e, healthyNode(), ObjP99SLO)
	if m.Violation.Objective != "" || m.Steps != 0 {
		t.Errorf("non-violating input should return zero violation and no steps, got %+v steps=%d",
			m.Violation, m.Steps)
	}
}

func TestCorpusRoundTripAndReplay(t *testing.T) {
	e := &Evaluator{SLO: DefaultSLO(), Margin: 0.02}
	ev := e.Evaluate(p99Violator())
	if ev.Err != nil {
		t.Fatal(ev.Err)
	}
	var v Violation
	for _, cand := range ev.Violations {
		if cand.Objective == ObjP99SLO {
			v = cand
		}
	}
	entry := NewEntry(Minimized{Cand: p99Violator(), Violation: v}, DefaultSLO(), 0.02)
	dir := t.TempDir()
	names, err := WriteCorpus(dir, []Entry{entry})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != entry.Name() {
		t.Fatalf("WriteCorpus names = %v, want [%s]", names, entry.Name())
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || !reflect.DeepEqual(loaded[0], entry) {
		t.Fatalf("corpus round-trip mismatch:\nwrote %+v\nread  %+v", entry, loaded)
	}
	results := Replay(e, loaded)
	if len(results) != 1 || !results[0].OK || results[0].Err != nil {
		t.Fatalf("replay of a pinned violator failed: %+v", results)
	}
}

func TestCheckedInCorpusStillViolates(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay in -short mode")
	}
	dir := filepath.Join("..", "..", "testdata", "corpus")
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("checked-in corpus has %d entries, want >= 3", len(entries))
	}
	for _, r := range Replay(&Evaluator{}, entries) {
		if r.Err != nil {
			t.Errorf("corpus entry %s: %v", r.Entry.Name(), r.Err)
		} else if !r.OK {
			t.Errorf("corpus entry %s no longer violates %s (%s)",
				r.Entry.Name(), r.Entry.Objective, r.Violation.Detail)
		}
	}
}

// TestCheckedInCorpusNamesMatchHashes: a corpus file is named after
// its entry's candidate hash, which hashes the genome's JSON encoding.
// A change to that encoding (a renamed tag, a moved field) would
// silently re-key every pinned counterexample; every checked-in file
// must still carry its entry's name.
func TestCheckedInCorpusNamesMatchHashes(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "corpus")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || len(entries) != len(files) {
		t.Fatalf("loaded %d corpus entries from %d files", len(entries), len(files))
	}
	for i, e := range entries {
		if got := filepath.Base(files[i]); got != e.Name() {
			t.Errorf("corpus file %s holds entry %s", got, e.Name())
		}
	}
}

func TestLoadCorpusRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	entry := Entry{Schema: "bogus-v0", Objective: ObjP99SLO, Candidate: p99Violator()}
	if _, err := WriteCorpus(dir, []Entry{entry}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Error("LoadCorpus accepted a wrong-schema entry")
	}
}

func TestRunRejectsUnknownTier(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Tiers: []string{"galaxy"}}); err == nil {
		t.Error("Run accepted an unknown tier")
	}
}

// TestRunRejectsNonFiniteTolerances: withDefaults replaces only values
// <= 0, so a NaN or +Inf SLO or margin would otherwise reach the
// evaluator (NaN breaks the corpus encoding, +Inf silently finds
// nothing). Run must refuse them before searching.
func TestRunRejectsNonFiniteTolerances(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"slo-p99 NaN", Config{SLO: SLO{P99Ms: math.NaN()}}},
		{"slo-p99 +Inf", Config{SLO: SLO{P99Ms: math.Inf(1)}}},
		{"slo-jpr NaN", Config{SLO: SLO{JPR: math.NaN()}}},
		{"slo-jpr +Inf", Config{SLO: SLO{JPR: math.Inf(1)}}},
		{"margin NaN", Config{Margin: math.NaN()}},
		{"margin +Inf", Config{Margin: math.Inf(1)}},
	} {
		c.cfg.Seed, c.cfg.Generations, c.cfg.Population = 6, 1, 2
		if _, err := Run(c.cfg); err == nil {
			t.Errorf("Run accepted %s", c.name)
		}
	}
}
