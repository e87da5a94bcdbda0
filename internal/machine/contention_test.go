package machine

import (
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/contention"
	"smartbalance/internal/workload"
)

// memorySpec builds a memory-heavy thread whose data working set is the
// contention lever under test.
func memorySpec(wsDKB float64) *workload.ThreadSpec {
	return &workload.ThreadSpec{
		Name:      "mem",
		Benchmark: "test",
		Phases: []workload.Phase{{
			Name: "p", Instructions: 500e6, ILP: 1.5, MemShare: 0.45,
			BranchShare: 0.05, WorkingSetIKB: 16, WorkingSetDKB: wsDKB,
			BranchEntropy: 0.3, MLP: 2, TLBPressureI: 0.05, TLBPressureD: 0.3,
		}},
	}
}

// TestContentionZeroOverlapByteIdentical pins the §15 invariant at the
// machine layer: with the model enabled but no co-runner in the
// victim's LLC domain, every slice result is byte-identical to the
// uncontended machine — enabling contention on a solo workload changes
// nothing at all.
func TestContentionZeroOverlapByteIdentical(t *testing.T) {
	plain, err := New(arch.OctaBigLittle())
	if err != nil {
		t.Fatal(err)
	}
	cont, err := NewWithOptions(arch.OctaBigLittle(), Options{
		Contention: contention.Spec{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := plain.NewThreadState(memorySpec(4096))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := cont.NewThreadState(memorySpec(4096))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		var rp, rc SliceResult
		if err := plain.ExecSliceOnCore(&rp, tp, 0, 2e6); err != nil {
			t.Fatal(err)
		}
		if err := cont.ExecSliceOnCore(&rc, tc, 0, 2e6); err != nil {
			t.Fatal(err)
		}
		if rp != rc {
			t.Fatalf("slice %d diverged with zero overlap:\nplain %+v\ncont  %+v", i, rp, rc)
		}
	}
}

// TestContentionMonotoneDegradation: a heavier co-runner working set in
// the victim's domain retires fewer victim instructions per slice and
// raises its memory-bound counters — the degradation is monotone in the
// overlap.
func TestContentionMonotoneDegradation(t *testing.T) {
	prevInstr := uint64(math.MaxUint64)
	prevLLC := 0.0
	for _, antWs := range []float64{64, 2048, 8192, 32768} {
		m, err := NewWithOptions(arch.OctaBigLittle(), Options{
			Contention: contention.Spec{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		ant, err := m.NewThreadState(memorySpec(antWs))
		if err != nil {
			t.Fatal(err)
		}
		vic, err := m.NewThreadState(memorySpec(1024))
		if err != nil {
			t.Fatal(err)
		}
		// Warm the antagonist's footprint EWMA on core 1 (victim's
		// domain), then measure one victim slice on core 0.
		var r SliceResult
		for i := 0; i < 60; i++ {
			if err := m.ExecSliceOnCore(&r, ant, 1, 1e6); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.ExecSliceOnCore(&r, vic, 0, 2e6); err != nil {
			t.Fatal(err)
		}
		if r.Instructions == 0 || r.Instructions > prevInstr {
			t.Fatalf("victim retired %d instructions under ant ws %g KB, want (0, %d]",
				r.Instructions, antWs, prevInstr)
		}
		// Counter quantisation wobbles the rate in the last few digits
		// once both points sit on the pressure cap; allow that.
		llcRate := float64(r.LLCMisses) / float64(r.Instructions)
		if llcRate < prevLLC*(1-1e-4) {
			t.Fatalf("victim LLC miss rate %v under ant ws %g KB fell below %v", llcRate, antWs, prevLLC)
		}
		prevInstr, prevLLC = r.Instructions, llcRate
	}
	if prevInstr == uint64(math.MaxUint64) {
		t.Fatal("no slices measured")
	}
}

// TestContentionSaturationStaysFinite: an absurd antagonist against a
// 1 GB/s domain drives the model into both clamps; the victim's slice
// must remain finite, forward-progressing, and energy-sane.
func TestContentionSaturationStaysFinite(t *testing.T) {
	m, err := NewWithOptions(arch.OctaBigLittle(), Options{
		Contention: contention.Spec{Enabled: true, BWGBps: 1, LLCKB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ws float64) *ThreadState {
		ts, err := m.NewThreadState(memorySpec(ws))
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	ants := []*ThreadState{mk(65536), mk(65536), mk(65536)}
	vic := mk(1024)
	var r SliceResult
	for i := 0; i < 100; i++ {
		for c, ant := range ants {
			if err := m.ExecSliceOnCore(&r, ant, arch.CoreID(c+1), 1e6); err != nil {
				t.Fatal(err)
			}
		}
	}
	cm := m.Contention()
	if cm.MissScale(0) > 1+cm.MissSlope()*cm.PressureCap() {
		t.Fatalf("MissScale %v escaped the pressure cap", cm.MissScale(0))
	}
	if lim := 1 / (1 - cm.MaxBWUtil()); cm.LatScale(0) > lim {
		t.Fatalf("LatScale %v escaped the utilisation clamp %v", cm.LatScale(0), lim)
	}
	for i := 0; i < 20; i++ {
		if err := m.ExecSliceOnCore(&r, vic, 0, 2e6); err != nil {
			t.Fatal(err)
		}
		if r.RunNs <= 0 || r.RunNs > 2e6 {
			t.Fatalf("slice %d RunNs %d outside (0, 2ms]", i, r.RunNs)
		}
		if r.Instructions == 0 {
			t.Fatalf("slice %d made no progress under saturation", i)
		}
		if math.IsNaN(r.EnergyJ) || math.IsInf(r.EnergyJ, 0) || r.EnergyJ < 0 {
			t.Fatalf("slice %d energy %v", i, r.EnergyJ)
		}
	}
}
