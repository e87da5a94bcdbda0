package sweep

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func testFleetGrid() FleetGrid {
	return FleetGrid{
		Nodes:      []int{2},
		Profiles:   []string{"quad,biglittle"},
		Balancers:  []string{"vanilla"},
		Policies:   []string{"rr", "energy"},
		Arrivals:   []string{"uniform:rate=200"},
		Seeds:      []uint64{1, 2},
		DurationNs: 100e6,
	}
}

func TestFleetGridExpandCanonicalOrder(t *testing.T) {
	scs, err := testFleetGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(scs))
	}
	want := []string{
		"fleet/n2/quad,biglittle/vanilla/rr/uniform:rate=200/s1/d100ms",
		"fleet/n2/quad,biglittle/vanilla/rr/uniform:rate=200/s2/d100ms",
		"fleet/n2/quad,biglittle/vanilla/energy/uniform:rate=200/s1/d100ms",
		"fleet/n2/quad,biglittle/vanilla/energy/uniform:rate=200/s2/d100ms",
	}
	for i, sc := range scs {
		if sc.Key() != want[i] {
			t.Errorf("cell %d key = %q, want %q", i, sc.Key(), want[i])
		}
	}
}

func TestFleetGridRejectsMalformedCells(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FleetGrid)
	}{
		{"empty axis", func(g *FleetGrid) { g.Policies = nil }},
		{"zero nodes", func(g *FleetGrid) { g.Nodes = []int{0} }},
		{"bad policy", func(g *FleetGrid) { g.Policies = []string{"random"} }},
		{"zero duration", func(g *FleetGrid) { g.DurationNs = 0 }},
	}
	for _, tc := range cases {
		g := testFleetGrid()
		tc.mut(&g)
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: grid expanded, want error", tc.name)
		}
	}
}

func TestFleetTasksDeterministicAcrossWorkers(t *testing.T) {
	scs, err := testFleetGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		tasks, err := FleetTasks(scs, "")
		if err != nil {
			t.Fatal(err)
		}
		results, err := Execute(tasks, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := FirstError(results); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	if parallel := render(4); parallel != serial {
		t.Error("fleet sweep JSONL differs between 1 and 4 workers")
	}
	if !strings.Contains(serial, `"joules_per_request"`) {
		t.Errorf("fleet outcome missing joules_per_request:\n%s", serial)
	}
}

func TestFleetOutcomeRoundTrip(t *testing.T) {
	scs, err := testFleetGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunFleetScenario(scs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed == 0 || out.EnergyJ <= 0 {
		t.Fatalf("implausible outcome: %+v", out)
	}
	tasks, err := FleetTasks(scs[:1], "")
	if err != nil {
		t.Fatal(err)
	}
	data, err := tasks[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFleetOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *out {
		t.Errorf("decoded outcome %+v != direct run %+v", got, out)
	}
}

func TestRenderFleetTableCarriesErrors(t *testing.T) {
	results := []Result{{Key: "fleet/broken", Err: errors.New("boom")}}
	var buf bytes.Buffer
	if err := RenderFleetTable(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ERROR: boom") {
		t.Errorf("table missing error row:\n%s", buf.String())
	}
}
