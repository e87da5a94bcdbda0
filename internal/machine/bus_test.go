package machine

import (
	"testing"

	"smartbalance/internal/arch"
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

func TestNewWithOptionsValidation(t *testing.T) {
	if _, err := NewWithOptions(arch.QuadHMP(), Options{BusBandwidthGBps: -1}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestBusDisabledByDefault(t *testing.T) {
	m := newMachine(t)
	if m.MemLatencyScale() != 1 {
		t.Fatalf("default latency scale %g", m.MemLatencyScale())
	}
	ts, _ := m.NewThreadState(memBoundSpec())
	for i := 0; i < 50; i++ {
		if _, err := execOn(m, ts, 0, 2e6); err != nil {
			t.Fatal(err)
		}
	}
	if m.MemLatencyScale() != 1 {
		t.Fatal("disabled bus model accumulated contention")
	}
}

func TestBusContentionInflatesLatency(t *testing.T) {
	// A tightly constrained bus under heavy miss traffic must raise the
	// latency scale above 1 (and keep it bounded).
	m, err := NewWithOptions(arch.QuadHMP(), Options{BusBandwidthGBps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := m.NewThreadState(memBoundSpec())
	for i := 0; i < 200; i++ {
		if _, err := execOn(m, ts, 0, 2e6); err != nil {
			t.Fatal(err)
		}
	}
	scale := m.MemLatencyScale()
	if scale <= 1.02 {
		t.Fatalf("no contention built up: scale %g", scale)
	}
	if scale > 10.001 {
		t.Fatalf("contention unbounded: scale %g", scale)
	}
}

func TestBusContentionReducesThroughput(t *testing.T) {
	run := func(bandwidth float64) uint64 {
		m, err := NewWithOptions(arch.QuadHMP(), Options{BusBandwidthGBps: bandwidth})
		if err != nil {
			t.Fatal(err)
		}
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
	free := run(0)     // disabled
	tight := run(0.25) // heavily constrained
	if tight >= free {
		t.Fatalf("contention did not reduce throughput: %d >= %d", tight, free)
	}
	if float64(tight) > 0.9*float64(free) {
		t.Fatalf("contention effect implausibly small: %d vs %d", tight, free)
	}
}

func TestBusContentionDecays(t *testing.T) {
	m, err := NewWithOptions(arch.QuadHMP(), Options{BusBandwidthGBps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := m.NewThreadState(memBoundSpec())
	for i := 0; i < 100; i++ {
		_, _ = execOn(m, ts, 0, 2e6)
	}
	loaded := m.MemLatencyScale()
	// Compute-bound traffic afterwards: contention must decay.
	cs, _ := m.NewThreadState(simpleSpec(1<<40, 0, 0))
	for i := 0; i < 100; i++ {
		_, _ = execOn(m, cs, 0, 2e6)
	}
	cooled := m.MemLatencyScale()
	if cooled >= loaded {
		t.Fatalf("contention did not decay: %g -> %g", loaded, cooled)
	}
}

func TestEvaluateContendedMonotone(t *testing.T) {
	// The memory-latency scale the bus model applies raises memory
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
