package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/rng"
)

// updateGolden rewrites testdata/anneal_golden.json from the current
// annealer instead of comparing against it:
//
//	go test ./internal/core -run TestAnnealGoldenTrajectories -update
//
// Regenerate only for an intended change of Algorithm 1's decisions; a
// speed change must replay the committed file bit for bit.
var updateGolden = flag.Bool("update", false, "rewrite testdata/anneal_golden.json")

const annealGoldenPath = "testdata/anneal_golden.json"

// goldenCase is one seeded annealer input. The problem, its optional
// contention term, affinity mask and weights, and the starting
// allocation are all regenerated from Seed, so the golden file holds
// only outcomes.
type goldenCase struct {
	M, N       int
	Mode       ObjectiveMode
	Contention bool
	Affinity   bool
	Weights    bool
	UseFloat   bool
	Warm       bool // slow-cooling schedule: many downhill acceptances
	Ties       bool // utilisations repeat exactly, mostly at 1.0
	Saturated  bool // every utilisation is exactly 1.0
	Pairs      bool // contention domains are pairs of adjacent cores
	Packed     bool // every thread starts on core 0
	Seed       uint64
}

func (c goldenCase) name() string {
	s := fmt.Sprintf("m%d-n%d-%v", c.M, c.N, c.Mode)
	if c.Contention {
		s += "-cont"
	}
	if c.Affinity {
		s += "-aff"
	}
	if c.Weights {
		s += "-w"
	}
	if c.UseFloat {
		s += "-float"
	}
	if c.Warm {
		s += "-warm"
	}
	if c.Ties {
		s += "-ties"
	}
	if c.Saturated {
		s += "-sat"
	}
	if c.Pairs {
		s += "-pairs"
	}
	if c.Packed {
		s += "-packed"
	}
	return fmt.Sprintf("%s-s%d", s, c.Seed)
}

// goldenOutcome is what the file pins: the float bits of the incumbent
// and final objectives, the iteration and acceptance counts, and the
// final allocation.
type goldenOutcome struct {
	Initial    string `json:"initial"`
	Objective  string `json:"objective"`
	Iterations int    `json:"iterations"`
	Accepted   int    `json:"accepted"`
	Allocation []int  `json:"allocation"`
}

// goldenCases covers every ObjectiveMode with contention on and off, m
// from 1 to 16 on 1 to 8 cores, and rotates affinity masks, weights,
// the float Metropolis rule and a warm schedule across the table.
//
// The tie cases put four to eight threads on each core with
// utilisations that repeat exactly, mostly 1.0 as Mix1's threads do.
// Tied demands make coreShareInto's stable sort, and so the order of a
// core's member list, decide which thread takes each rounded share:
// the continuous draws of the other cases never exercise that order.
//
// The saturated cases give every thread a demand of exactly 1.0, as
// threads runnable for a whole epoch report: node-quad's shape (8
// threads on 4 cores), node-contended's (8 threads on 6 cores whose
// LLC domains are three pairs), in both acceptance rules, and 66 or 72
// threads started on one core, so that core's edits cross 64 members.
func goldenCases() []goldenCase {
	var cases []goldenCase
	idx := 0
	for _, m := range []int{1, 2, 3, 5, 8, 12, 16} {
		for _, mode := range []ObjectiveMode{GlobalRatio, PerCoreRatioSum, MaxThroughput} {
			for _, cont := range []bool{false, true} {
				cases = append(cases, goldenCase{
					M:          m,
					N:          1 + (m+idx)%8,
					Mode:       mode,
					Contention: cont,
					Affinity:   idx%3 == 1,
					Weights:    idx%5 == 2,
					UseFloat:   idx%4 == 3,
					Warm:       idx%2 == 1,
					Seed:       uint64(1000 + idx),
				})
				idx++
			}
		}
	}
	for _, shape := range [][2]int{{16, 4}, {24, 3}} {
		for _, mode := range []ObjectiveMode{GlobalRatio, PerCoreRatioSum, MaxThroughput} {
			for _, cont := range []bool{false, true} {
				cases = append(cases, goldenCase{
					M:          shape[0],
					N:          shape[1],
					Mode:       mode,
					Contention: cont,
					Warm:       idx%2 == 1,
					Ties:       true,
					Seed:       uint64(1000 + idx),
				})
				idx++
			}
		}
	}
	for _, c := range []goldenCase{
		{M: 8, N: 4, Mode: GlobalRatio},
		{M: 8, N: 4, Mode: PerCoreRatioSum, Warm: true},
		{M: 8, N: 4, Mode: MaxThroughput, UseFloat: true},
		{M: 8, N: 6, Mode: GlobalRatio, Contention: true, Pairs: true},
		{M: 8, N: 6, Mode: GlobalRatio, Contention: true, Pairs: true, UseFloat: true},
		{M: 8, N: 6, Mode: PerCoreRatioSum, Contention: true, Pairs: true, Warm: true},
		{M: 8, N: 6, Mode: MaxThroughput, Contention: true, Pairs: true, UseFloat: true, Warm: true},
		{M: 66, N: 3, Mode: GlobalRatio, Packed: true},
		{M: 72, N: 6, Mode: GlobalRatio, Contention: true, Pairs: true, Packed: true, UseFloat: true},
	} {
		c.Saturated = true
		c.Seed = uint64(1000 + idx)
		cases = append(cases, c)
		idx++
	}
	return cases
}

// build regenerates the case's problem, starting allocation and config.
func (c goldenCase) build() (*Problem, Allocation, AnnealConfig) {
	r := rng.New(c.Seed)
	p := randomProblem(r, c.M, c.N)
	p.Mode = c.Mode
	if c.Ties {
		shared := [...]float64{0.25, 0.5, 0.75}
		for i := range p.Util {
			if r.Float64() < 0.7 {
				p.Util[i] = 1
			} else {
				p.Util[i] = shared[r.Intn(len(shared))]
			}
		}
	}
	if c.Saturated {
		for i := range p.Util {
			p.Util[i] = 1
		}
	}
	switch {
	case c.Contention && c.Pairs:
		p.Contention = pairedContention(r, c.M, c.N)
	case c.Contention:
		p.Contention = randomContention(r, c.M, c.N)
	}
	if c.Weights {
		p.Weights = make([]float64, c.N)
		for j := range p.Weights {
			p.Weights[j] = 0.5 + r.Float64()
		}
	}
	initial := make(Allocation, c.M)
	if c.Affinity {
		p.Allowed = make([][]bool, c.M)
		for i := range p.Allowed {
			switch i % 3 {
			case 0: // unrestricted
			case 1: // pinned to one core
				row := make([]bool, c.N)
				row[r.Intn(c.N)] = true
				p.Allowed[i] = row
			default: // a random non-empty subset
				row := make([]bool, c.N)
				row[r.Intn(c.N)] = true
				for j := range row {
					if r.Float64() < 0.4 {
						row[j] = true
					}
				}
				p.Allowed[i] = row
			}
		}
	}
	for i := range initial {
		if c.Packed {
			continue // core 0; packed cases carry no affinity mask
		}
		core := r.Intn(c.N)
		for !p.AllowedOn(i, core) {
			core = (core + 1) % c.N
		}
		initial[i] = arch.CoreID(core)
	}
	cfg := DefaultAnnealConfig()
	cfg.Seed = c.Seed * 7
	cfg.UseFloat = c.UseFloat
	if c.Warm {
		cfg.Accept = 0.5
		cfg.DeltaAccept = 0.999
	}
	return p, initial, cfg
}

func outcomeOf(res *AnnealResult) goldenOutcome {
	out := goldenOutcome{
		Initial:    fmt.Sprintf("%016x", math.Float64bits(res.Initial)),
		Objective:  fmt.Sprintf("%016x", math.Float64bits(res.Objective)),
		Iterations: res.Iterations,
		Accepted:   res.Accepted,
		Allocation: make([]int, len(res.Allocation)),
	}
	for i, c := range res.Allocation {
		out.Allocation[i] = int(c)
	}
	return out
}

// TestAnnealGoldenTrajectories replays the committed annealer outcomes
// bit for bit, through a fresh Anneal per case and through one Annealer
// reused across the whole table (which also pins that no evaluator
// state leaks between Runs).
func TestAnnealGoldenTrajectories(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]goldenOutcome, len(cases))
	var shared Annealer
	for _, c := range cases {
		p, initial, cfg := c.build()
		res, err := Anneal(p, initial, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		fresh := outcomeOf(res)
		res, err = shared.Run(p, initial, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		if reused := outcomeOf(res); fmt.Sprint(reused) != fmt.Sprint(fresh) {
			t.Fatalf("%s: reused Annealer %+v != fresh %+v", c.name(), reused, fresh)
		}
		got[c.name()] = fresh
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(annealGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(annealGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(annealGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want map[string]goldenOutcome
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d cases, table has %d", len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.name()]
		if !ok {
			t.Fatalf("%s: missing from golden file", c.name())
		}
		if g := got[c.name()]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s: trajectory drifted\n got %+v\nwant %+v", c.name(), g, w)
		}
	}
}
