package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func quickGrid() Grid {
	return Grid{
		Platforms:  []string{"quad"},
		Balancers:  []string{"vanilla", "pinned"},
		Workloads:  []string{"swaptions", "imb:HM"},
		Threads:    []int{2},
		Seeds:      []uint64{1, 2},
		DurationNs: 40e6,
	}
}

func TestGridExpandCanonicalOrder(t *testing.T) {
	scs, err := quickGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1*2*2*1*2 {
		t.Fatalf("expanded %d scenarios", len(scs))
	}
	// Platform-major, then balancer, workload, threads, seed; keys
	// unique.
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.Key()] {
			t.Fatalf("duplicate key %s", sc.Key())
		}
		seen[sc.Key()] = true
	}
	if scs[0].Key() != "quad/vanilla/swaptions/t2/s1/d40ms" {
		t.Fatalf("first key %s", scs[0].Key())
	}
	if scs[1].Seed != 2 || scs[2].Workload != "imb:HM" {
		t.Fatalf("canonical order violated: %+v %+v", scs[1], scs[2])
	}
}

func TestGridExpandRejectsEmptyAxes(t *testing.T) {
	g := quickGrid()
	g.Seeds = nil
	if _, err := g.Expand(); err == nil {
		t.Fatal("empty seed axis accepted")
	}
	g = quickGrid()
	g.DurationNs = 0
	if _, err := g.Expand(); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestRunScenarioVanilla(t *testing.T) {
	out, err := RunScenario(Scenario{
		Platform: "quad", Balancer: "vanilla", Workload: "Mix1",
		Threads: 2, Seed: 1, DurationNs: 60e6,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.EnergyEff <= 0 || out.Instructions == 0 || out.PowerW <= 0 {
		t.Fatalf("degenerate outcome: %+v", out)
	}
}

func TestRunScenarioBadNames(t *testing.T) {
	base := Scenario{Platform: "quad", Balancer: "vanilla", Workload: "Mix1",
		Threads: 2, Seed: 1, DurationNs: 10e6}
	bad := []Scenario{}
	s := base
	s.Platform = "mega"
	bad = append(bad, s)
	s = base
	s.Workload = "nope"
	bad = append(bad, s)
	s = base
	s.Balancer = "nope"
	bad = append(bad, s)
	s = base
	s.Balancer = "gts" // GTS needs a two-type platform; quad has four
	bad = append(bad, s)
	for i, sc := range bad {
		if _, err := RunScenario(sc, nil); err == nil {
			t.Errorf("case %d: bad scenario accepted: %+v", i, sc)
		}
	}
}

// TestScenarioSweepSerialParallelByteIdentical is the engine's core
// contract on real scenarios: expanding a grid and running it with one
// worker or many produces byte-identical canonical reports.
func TestScenarioSweepSerialParallelByteIdentical(t *testing.T) {
	scs, err := quickGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := Tasks(scs, "")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Execute(tasks, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Execute(tasks, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sj, pj, st, pt bytes.Buffer
	if err := WriteJSONL(&sj, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&pj, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), pj.Bytes()) {
		t.Fatal("parallel JSONL report differs from serial")
	}
	if err := RenderTable(&st, serial); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable(&pt, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Bytes(), pt.Bytes()) {
		t.Fatal("parallel table report differs from serial")
	}
	if !strings.Contains(st.String(), "quad/vanilla/swaptions/t2/s1/d40ms") {
		t.Fatalf("table lacks scenario keys:\n%s", st.String())
	}
}

// TestScenarioErrorValuedResult: a failing scenario degrades to an
// error row; the rest of the sweep completes.
func TestScenarioErrorValuedResult(t *testing.T) {
	scs := []Scenario{
		{Platform: "quad", Balancer: "vanilla", Workload: "Mix1", Threads: 2, Seed: 1, DurationNs: 20e6},
		{Platform: "quad", Balancer: "gts", Workload: "Mix1", Threads: 2, Seed: 1, DurationNs: 20e6},
	}
	tasks, err := Tasks(scs, "")
	if err != nil {
		t.Fatal(err)
	}
	results, err := Execute(tasks, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("healthy scenario failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("gts-on-quad should fail")
	}
	var tab bytes.Buffer
	if err := RenderTable(&tab, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "ERROR:") {
		t.Fatalf("error row missing:\n%s", tab.String())
	}
	s := Summarize(results)
	if s.Jobs != 2 || s.OK != 1 || s.Failed != 1 {
		t.Fatalf("summary: %+v", s)
	}
}

func TestDecodeOutcomeRejectsGarbage(t *testing.T) {
	if _, err := DecodeOutcome([]byte("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestFaultAxisFingerprintAndKey(t *testing.T) {
	clean := Scenario{Platform: "quad", Balancer: "vanilla", Workload: "Mix1",
		Threads: 2, Seed: 1, DurationNs: 100e6}
	faulty := clean
	faulty.Fault = "drop=0.5"

	if clean.Key() == faulty.Key() {
		t.Fatal("fault plan not reflected in the scenario key")
	}
	fpClean, err := Fingerprint(SchemaVersion, clean)
	if err != nil {
		t.Fatal(err)
	}
	fpFaulty, err := Fingerprint(SchemaVersion, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if string(fpClean) == string(fpFaulty) {
		t.Fatal("fault plan not part of the fingerprint")
	}
	// Backward compatibility: a clean scenario's canonical JSON (and so
	// its content address) must not mention the fault field at all —
	// cache entries written before the axis existed must still hit.
	if strings.Contains(string(fpClean), "fault") {
		t.Fatalf("clean fingerprint leaks the fault axis: %s", fpClean)
	}

	bad := clean
	bad.Fault = "drop=2"
	if _, err := RunScenario(bad, nil); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

func TestGridFaultAxisExpansion(t *testing.T) {
	g := Grid{
		Platforms: []string{"quad"}, Balancers: []string{"vanilla"},
		Workloads: []string{"Mix1"}, Threads: []int{2}, Seeds: []uint64{1},
		DurationNs: 100e6, Faults: []string{"none", "drop=0.5"},
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("want 2 scenarios, got %d", len(scs))
	}
	if scs[0].Fault != "" {
		t.Fatalf(`"none" should normalise to the empty plan, got %q`, scs[0].Fault)
	}
	if scs[1].Fault != "drop=0.5" {
		t.Fatalf("fault plan lost in expansion: %q", scs[1].Fault)
	}
}

func TestRunScenarioWithFaultsDeterministic(t *testing.T) {
	sc := Scenario{Platform: "quad", Balancer: "smartbalance", Workload: "Mix1",
		Threads: 4, Seed: 3, DurationNs: 400e6, Fault: "drop=0.4;migfail=0.3"}
	a, err := RunScenario(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("faulty scenario not deterministic:\n%s\n%s", ja, jb)
	}
	clean := sc
	clean.Fault = ""
	c, err := RunScenario(clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Instructions == 0 || a.Instructions == 0 {
		t.Fatal("scenarios retired no instructions")
	}
}
