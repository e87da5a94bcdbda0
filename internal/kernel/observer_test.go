package kernel

import (
	"strings"
	"testing"
)

func TestEventStringForms(t *testing.T) {
	e := TraceEvent{At: 1.5e6, Kind: TraceSlice, Core: 2, Thread: 7, DurNs: 3e6, Instr: 42}
	s := e.String()
	for _, frag := range []string{"slice", "core=2", "tid=7", "instr=42"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("slice event string missing %q: %s", frag, s)
		}
	}
	ep := TraceEvent{At: 60e6, Kind: TraceEpoch}
	if !strings.Contains(ep.String(), "epoch") {
		t.Fatal("epoch event string wrong")
	}
}
