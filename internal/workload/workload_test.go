package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"smartbalance/internal/rng"
)

func validPhase() Phase {
	return Phase{
		Name: "p", Instructions: 1e6, ILP: 2, MemShare: 0.3, BranchShare: 0.1,
		WorkingSetIKB: 8, WorkingSetDKB: 64, BranchEntropy: 0.4, MLP: 2,
		TLBPressureI: 0.1, TLBPressureD: 0.2,
	}
}

func TestPhaseValidateAcceptsValid(t *testing.T) {
	p := validPhase()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseValidateRejectsBad(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Phase)
	}{
		{"zero instructions", func(p *Phase) { p.Instructions = 0 }},
		{"tiny ILP", func(p *Phase) { p.ILP = 0.01 }},
		{"huge ILP", func(p *Phase) { p.ILP = 20 }},
		{"mem share high", func(p *Phase) { p.MemShare = 0.9 }},
		{"negative mem share", func(p *Phase) { p.MemShare = -0.1 }},
		{"branch share high", func(p *Phase) { p.BranchShare = 0.6 }},
		{"combined share", func(p *Phase) { p.MemShare, p.BranchShare = 0.7, 0.4 }},
		{"zero WS", func(p *Phase) { p.WorkingSetDKB = 0 }},
		{"entropy out of range", func(p *Phase) { p.BranchEntropy = 1.5 }},
		{"MLP below 1", func(p *Phase) { p.MLP = 0.5 }},
		{"TLB pressure", func(p *Phase) { p.TLBPressureD = 2 }},
		{"negative sleep", func(p *Phase) { p.SleepAfterNs = -1 }},
	}
	for _, c := range cases {
		p := validPhase()
		c.mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestPhaseValidateRejectsNonFinite: NaN passes any check written as
// v < lo || v > hi, and +Inf passes a lower bound alone, so every float
// attribute is tried with NaN and both infinities.
func TestPhaseValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Phase) *float64{
		"ILP":           func(p *Phase) *float64 { return &p.ILP },
		"MemShare":      func(p *Phase) *float64 { return &p.MemShare },
		"BranchShare":   func(p *Phase) *float64 { return &p.BranchShare },
		"WorkingSetIKB": func(p *Phase) *float64 { return &p.WorkingSetIKB },
		"WorkingSetDKB": func(p *Phase) *float64 { return &p.WorkingSetDKB },
		"BranchEntropy": func(p *Phase) *float64 { return &p.BranchEntropy },
		"MLP":           func(p *Phase) *float64 { return &p.MLP },
		"TLBPressureI":  func(p *Phase) *float64 { return &p.TLBPressureI },
		"TLBPressureD":  func(p *Phase) *float64 { return &p.TLBPressureD },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := validPhase()
			*field(&p) = v
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %v: accepted", name, v)
			}
		}
	}
}

func TestThreadSpecValidate(t *testing.T) {
	ts := ThreadSpec{Name: "t", Phases: []Phase{validPhase()}}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ThreadSpec{
		{Phases: []Phase{validPhase()}}, // no name
		{Name: "t"},                     // no phases
		{Name: "t", Phases: []Phase{validPhase()}, Repeats: -1}, // negative repeats
		{Name: "t", Phases: []Phase{validPhase()}, Nice: 30},    // bad nice
		{Name: "t", Phases: []Phase{{Name: "z"}}},               // invalid phase
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestTotalInstructions(t *testing.T) {
	ts := ThreadSpec{Name: "t", Phases: []Phase{validPhase(), validPhase()}}
	if got := ts.TotalInstructions(); got != 2e6 {
		t.Fatalf("TotalInstructions = %d", got)
	}
}

func TestDutyCycle(t *testing.T) {
	p := validPhase()
	p.Instructions = 1e9 // 1s at 1e9 IPS
	p.SleepAfterNs = 1e9 // then 1s sleep
	ts := ThreadSpec{Name: "t", Phases: []Phase{p}}
	dc := ts.DutyCycle(1e9)
	if dc < 0.49 || dc > 0.51 {
		t.Fatalf("DutyCycle = %g, want ~0.5", dc)
	}
	// No sleep -> fully busy.
	p.SleepAfterNs = 0
	ts = ThreadSpec{Name: "t", Phases: []Phase{p}}
	if ts.DutyCycle(1e9) != 1 {
		t.Fatal("busy thread should have duty cycle 1")
	}
}

func TestBenchmarksListStable(t *testing.T) {
	names := Benchmarks()
	if len(names) < 14 {
		t.Fatalf("only %d benchmarks", len(names))
	}
	// Must include the Table 3 constituents.
	want := []string{"bodytrack", "x264H-crew", "x264H-bow", "x264L-crew", "x264L-bow"}
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("benchmark %q missing", w)
		}
	}
	// Sorted.
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not sorted at %d: %v", i, names)
		}
	}
}

func TestAllProfilesValid(t *testing.T) {
	for _, name := range Benchmarks() {
		specs, err := Benchmark(name, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestBenchmarkUnknown(t *testing.T) {
	if _, err := Benchmark("nope", 2, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBenchmarkThreadCountAndNames(t *testing.T) {
	specs, err := Benchmark("swaptions", 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 120 {
		t.Fatalf("got %d threads", len(specs))
	}
	for i, s := range specs {
		if s.Benchmark != "swaptions" {
			t.Errorf("thread %d benchmark = %q", i, s.Benchmark)
		}
		if want := fmt.Sprintf("swaptions.w%d", i); s.Name != want {
			t.Errorf("thread %d name = %q, want %q", i, s.Name, want)
		}
	}
	if _, err := Benchmark("swaptions", 0, 7); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestSpawnDeterministicButJittered(t *testing.T) {
	a, err := Benchmark("canneal", 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Benchmark("canneal", 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed: identical.
	for i := range a {
		if a[i].Phases[0].ILP != b[i].Phases[0].ILP {
			t.Fatal("same seed produced different workers")
		}
	}
	// Workers differ from each other (jitter applied per worker).
	if a[0].Phases[0].ILP == a[1].Phases[0].ILP {
		t.Fatal("workers not jittered")
	}
	// Different seed: different.
	c, _ := Benchmark("canneal", 4, 43)
	if a[0].Phases[0].ILP == c[0].Phases[0].ILP {
		t.Fatal("different seeds produced identical workers")
	}
	// Worker w draws from its own stream: a generator split off the
	// seed's generator for the w-th time.
	base := parsecProfiles["canneal"]
	r := rng.New(42)
	for w := range a {
		want := make([]Phase, len(base))
		perturbPhases(r.Split(), want, base, 0.08)
		if !reflect.DeepEqual(a[w].Phases, want) {
			t.Fatalf("worker %d phases differ from its split stream", w)
		}
	}
	// Workers share one backing array, but an append to one worker's
	// phases never writes into the next worker's.
	next := a[1].Phases[0]
	_ = append(a[0].Phases, Phase{Name: "appended"})
	if a[1].Phases[0] != next {
		t.Fatal("an append to worker 0's phases overwrote worker 1's")
	}
}

func TestJitterBounded(t *testing.T) {
	base := parsecProfiles["swaptions"]
	specs, err := Spawn("swaptions", base, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		for i, p := range s.Phases {
			ref := base[i]
			if p.ILP < ref.ILP*0.9 || p.ILP > ref.ILP*1.1 {
				t.Fatalf("ILP jitter out of ±10%%: %g vs %g", p.ILP, ref.ILP)
			}
		}
	}
}

func TestX264VariantsDiffer(t *testing.T) {
	hc := parsecProfiles["x264H-crew"]
	lc := parsecProfiles["x264L-crew"]
	hb := parsecProfiles["x264H-bow"]
	if hc[0].Instructions <= lc[0].Instructions {
		t.Fatal("high frame-rate x264 should execute more instructions per frame burst")
	}
	if hc[0].BranchEntropy <= hb[0].BranchEntropy {
		t.Fatal("crew input should be less predictable than bowing")
	}
	// This is the paper's point: one benchmark, distinct characteristics.
	if hc[0].MemShare == hb[0].MemShare && hc[0].Instructions == hb[0].Instructions {
		t.Fatal("x264 input variants are indistinguishable")
	}
}

func TestMixContentsMatchTable3(t *testing.T) {
	want := map[string][]string{
		"Mix1": {"x264H-crew", "x264H-bow"},
		"Mix2": {"x264L-crew", "x264L-bow"},
		"Mix3": {"x264L-crew", "x264H-bow"},
		"Mix4": {"x264H-crew", "x264L-bow"},
		"Mix5": {"bodytrack", "x264H-crew"},
		"Mix6": {"bodytrack", "x264H-crew", "x264L-bow"},
	}
	for mix, benches := range want {
		got, err := MixContents(mix)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(benches) {
			t.Fatalf("%s: %v", mix, got)
		}
		for i := range benches {
			if got[i] != benches[i] {
				t.Fatalf("%s[%d] = %q, want %q", mix, i, got[i], benches[i])
			}
		}
	}
	if _, err := MixContents("Mix9"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestMixSpawns(t *testing.T) {
	specs, err := Mix("Mix6", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 { // 3 benchmarks x 2 threads
		t.Fatalf("Mix6 with 2 threads each: %d specs", len(specs))
	}
	if _, err := Mix("nope", 2, 1); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestIMBGrid(t *testing.T) {
	cfgs := IMBConfigs()
	if len(cfgs) != 9 {
		t.Fatalf("%d IMB configs", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		name := IMBName(c[0], c[1])
		if seen[name] {
			t.Fatalf("duplicate IMB config %s", name)
		}
		seen[name] = true
		specs, err := IMB(c[0], c[1], 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	if !seen["HTHI"] || !seen["LTLI"] || !seen["MTMI"] {
		t.Fatal("expected paper-style names missing")
	}
}

func TestIMBLevelsShapeBehaviour(t *testing.T) {
	ht, _ := IMB(High, Low, 1, 1)
	lt, _ := IMB(Low, Low, 1, 1)
	if ht[0].Phases[0].Instructions <= lt[0].Phases[0].Instructions {
		t.Fatal("high throughput should burst more instructions")
	}
	hi, _ := IMB(Medium, High, 1, 1)
	li, _ := IMB(Medium, Low, 1, 1)
	if hi[0].Phases[0].SleepAfterNs <= li[0].Phases[0].SleepAfterNs {
		t.Fatal("high interactivity should sleep longer")
	}
	// Duty cycle ordering: more interactive -> lower duty cycle.
	if hi[0].DutyCycle(1e9) >= li[0].DutyCycle(1e9) {
		t.Fatal("duty cycle should fall with interactivity")
	}
}

func TestIMBInvalidLevels(t *testing.T) {
	if _, err := IMB(Level(9), Low, 1, 1); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestParseLevel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Level
	}{{"H", High}, {"m", Medium}, {"L", Low}} {
		got, err := ParseLevel(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseLevel(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseLevel("x"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestLevelString(t *testing.T) {
	if High.String() != "H" || Medium.String() != "M" || Low.String() != "L" {
		t.Fatal("level strings wrong")
	}
	if !strings.Contains(Level(9).String(), "9") {
		t.Fatal("unknown level string should include value")
	}
}

func TestPerturbPhasesAlwaysValidProperty(t *testing.T) {
	// Jittering a valid phase must always produce a valid phase.
	f := func(seed uint16) bool {
		specs, err := Spawn("blackscholes", parsecProfiles["blackscholes"], 3, uint64(seed))
		if err != nil {
			return false
		}
		for _, s := range specs {
			if s.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
