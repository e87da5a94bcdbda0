package machine

import (
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/contention"
	"smartbalance/internal/perfmodel"
	"smartbalance/internal/workload"
)

func memBoundSpec() *workload.ThreadSpec {
	return &workload.ThreadSpec{
		Name:      "mem",
		Benchmark: "mem",
		Phases: []workload.Phase{{
			Name: "stream", Instructions: 1 << 40, ILP: 1.4, MemShare: 0.45, BranchShare: 0.1,
			WorkingSetIKB: 8, WorkingSetDKB: 4096, BranchEntropy: 0.3, MLP: 3,
			TLBPressureI: 0.05, TLBPressureD: 0.5,
		}},
	}
}

// busMachine builds a QuadHMP machine whose contention model carries a
// chip-wide bus of bwGBps (no model at all when bwGBps is zero). The
// quad's LLC domains hold one core each, so only the bus acts.
func busMachine(t *testing.T, bwGBps float64) *Machine {
	t.Helper()
	var opts Options
	if bwGBps > 0 {
		opts.Contention = contention.Spec{Enabled: true, BusGBps: bwGBps}
	}
	m, err := NewWithOptions(arch.QuadHMP(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewWithOptionsValidation(t *testing.T) {
	if _, err := NewWithOptions(arch.QuadHMP(), Options{
		Contention: contention.Spec{Enabled: true, BusGBps: -1},
	}); err == nil {
		t.Fatal("negative bus bandwidth accepted")
	}
}

func TestBusDisabledByDefault(t *testing.T) {
	m := newMachine(t)
	if m.Contention() != nil {
		t.Fatal("default machine carries a contention model")
	}
	ts, _ := m.NewThreadState(memBoundSpec())
	for i := 0; i < 50; i++ {
		if _, err := execOn(m, ts, 0, 2e6); err != nil {
			t.Fatal(err)
		}
	}
	if m.Contention() != nil {
		t.Fatal("default machine grew a contention model")
	}
}

func TestBusContentionInflatesLatency(t *testing.T) {
	// A tightly constrained bus under one core's heavy miss traffic must
	// raise the latency scale above 1 (and keep it bounded): the bus
	// counts a core's own traffic.
	m := busMachine(t, 0.5)
	ts, _ := m.NewThreadState(memBoundSpec())
	for i := 0; i < 200; i++ {
		if _, err := execOn(m, ts, 0, 2e6); err != nil {
			t.Fatal(err)
		}
	}
	scale := m.Contention().LatScale(0)
	if scale <= 1.02 {
		t.Fatalf("no contention built up: scale %g", scale)
	}
	if scale > 10.001 {
		t.Fatalf("contention unbounded: scale %g", scale)
	}
}

func TestBusContentionReducesThroughput(t *testing.T) {
	run := func(bandwidth float64) uint64 {
		m := busMachine(t, bandwidth)
		// Four memory-bound threads interleaved across all cores,
		// sharing one bus.
		states := make([]*ThreadState, 4)
		for i := range states {
			states[i], _ = m.NewThreadState(memBoundSpec())
		}
		var total uint64
		for round := 0; round < 100; round++ {
			for i, ts := range states {
				res, err := execOn(m, ts, arch.CoreID(i), 2e6)
				if err != nil {
					t.Fatal(err)
				}
				total += res.Instructions
			}
		}
		return total
	}
	free := run(0)     // no model
	tight := run(0.25) // heavily constrained
	if tight >= free {
		t.Fatalf("contention did not reduce throughput: %d >= %d", tight, free)
	}
	if float64(tight) > 0.9*float64(free) {
		t.Fatalf("contention effect implausibly small: %d vs %d", tight, free)
	}
}

func TestBusContentionDecays(t *testing.T) {
	m := busMachine(t, 0.5)
	ts, _ := m.NewThreadState(memBoundSpec())
	for i := 0; i < 100; i++ {
		_, _ = execOn(m, ts, 0, 2e6)
	}
	loaded := m.Contention().LatScale(0)
	// Compute-bound traffic afterwards: contention must decay.
	cs, _ := m.NewThreadState(simpleSpec(1<<40, 0, 0))
	for i := 0; i < 100; i++ {
		_, _ = execOn(m, cs, 0, 2e6)
	}
	cooled := m.Contention().LatScale(0)
	if cooled >= loaded {
		t.Fatalf("contention did not decay: %g -> %g", loaded, cooled)
	}
}

func TestEvaluateContendedMonotone(t *testing.T) {
	// The memory-latency scale the contention model applies raises memory
	// stalls, so IPC must fall monotonically on memory-bound code.
	spec := memBoundSpec()
	ct := arch.BigCore()
	prev := 10.0
	for _, scale := range []float64{0.5, 1, 2, 4, 8} {
		met := perfmodel.EvaluateShared(&spec.Phases[0], &ct, scale, 1)
		if met.IPC > prev+1e-12 {
			t.Fatalf("IPC not monotone in contention at scale %g", scale)
		}
		prev = met.IPC
	}
}
