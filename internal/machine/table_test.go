package machine

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"smartbalance/internal/arch"
	"smartbalance/internal/perfmodel"
	"smartbalance/internal/workload"
)

// sameMetrics reports whether every field of a and b holds the same
// float64 bits.
func sameMetrics(a, b perfmodel.Metrics) bool {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		if math.Float64bits(av.Field(i).Float()) != math.Float64bits(bv.Field(i).Float()) {
			return false
		}
	}
	return true
}

// threePhaseSpec cycles through three short phases with distinct
// characters, so a 1 ms slice crosses several phase boundaries.
func threePhaseSpec() *workload.ThreadSpec {
	spec := simpleSpec(2e5, 0, 0)
	mem := spec.Phases[0]
	mem.Name, mem.MemShare, mem.WorkingSetDKB, mem.MLP = "mem", 0.45, 2048, 3
	branchy := spec.Phases[0]
	branchy.Name, branchy.BranchShare, branchy.BranchEntropy, branchy.Instructions = "branchy", 0.3, 0.9, 3e5
	spec.Phases = append(spec.Phases, mem, branchy)
	return spec
}

// checkTable compares every (phase, core type) entry of ts's memo
// table with perfmodel.Evaluate, bit for bit.
func checkTable(t *testing.T, m *Machine, ts *ThreadState, when string) {
	t.Helper()
	types := m.Platform().Types
	for p := range ts.Spec.Phases {
		for c := range types {
			got := ts.metrics[p*ts.numTypes+c]
			if want := perfmodel.Evaluate(&ts.Spec.Phases[p], &types[c]); !sameMetrics(got, want) {
				t.Fatalf("%s: phase %d on %s: table %+v, Evaluate %+v", when, p, types[c].Name, got, want)
			}
		}
	}
}

// TestMetricsTableMatchesEvaluate checks the lazily filled memo table
// against perfmodel.Evaluate bit for bit, filled two ways: through
// SteadyMetrics before any slice, and by slices on every core type that
// cross every phase. A fresh thread state evaluates nothing, and a
// column is filled exactly when its type is first needed.
func TestMetricsTableMatchesEvaluate(t *testing.T) {
	m := newMachine(t) // QuadHMP: core i has type i
	types := m.Platform().Types
	spec := threePhaseSpec()

	ts, err := m.NewThreadState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ts.filled != 0 {
		t.Fatalf("fresh thread state has filled mask %b", ts.filled)
	}
	for c := range types {
		got := m.SteadyMetrics(ts, arch.CoreTypeID(c))
		if want := perfmodel.Evaluate(&spec.Phases[0], &types[c]); !sameMetrics(got, want) {
			t.Fatalf("SteadyMetrics on %s: %+v, Evaluate %+v", types[c].Name, got, want)
		}
		if want := uint64(1)<<(c+1) - 1; ts.filled != want {
			t.Fatalf("after SteadyMetrics on types 0..%d: filled mask %b, want %b", c, ts.filled, want)
		}
	}
	checkTable(t, m, ts, "through SteadyMetrics")

	ts, err = m.NewThreadState(spec)
	if err != nil {
		t.Fatal(err)
	}
	for c := range types {
		for i := 0; i < 8; i++ {
			if _, err := execOn(m, ts, arch.CoreID(c), 1e6); err != nil {
				t.Fatal(err)
			}
		}
		if want := uint64(1)<<(c+1) - 1; ts.filled != want {
			t.Fatalf("after slices on cores 0..%d: filled mask %b, want %b", c, ts.filled, want)
		}
		got := m.SteadyMetrics(ts, arch.CoreTypeID(c))
		if want := perfmodel.Evaluate(ts.CurrentPhase(), &types[c]); !sameMetrics(got, want) {
			t.Fatalf("SteadyMetrics on %s in phase %d: %+v, Evaluate %+v", types[c].Name, ts.PhaseIndex(), got, want)
		}
	}
	if cycles, _ := ts.Progress(); cycles == 0 {
		t.Fatal("the slices never completed a pass of the phase cycle")
	}
	checkTable(t, m, ts, "through slices")
}

// TestNewRejectsTooManyCoreTypes: one filled bit per core type bounds a
// machine at 64 types.
func TestNewRejectsTooManyCoreTypes(t *testing.T) {
	platform := func(n int) *arch.Platform {
		groups := make([]arch.TypeCount, n)
		for i := range groups {
			ct := arch.SmallCore()
			ct.Name = fmt.Sprintf("small%d", i)
			groups[i] = arch.TypeCount{Type: ct, Count: 1}
		}
		p, err := arch.CustomPlatform(fmt.Sprintf("types%d", n), groups...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := New(platform(maxTypes)); err != nil {
		t.Fatalf("%d core types rejected: %v", maxTypes, err)
	}
	if _, err := New(platform(maxTypes + 1)); err == nil {
		t.Fatalf("%d core types accepted", maxTypes+1)
	}
}

// TestThreadStateSizeClass pins ThreadState to the 80-byte allocation
// size class it has always had: every spawn allocates one.
func TestThreadStateSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(ThreadState{}); n > 80 {
		t.Fatalf("ThreadState is %d bytes, over the 80-byte size class", n)
	}
}
