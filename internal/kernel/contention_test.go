package kernel

import (
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/contention"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

// TestSleepForgetsContentionFootprint: a core that goes quiescent for
// much longer than the model's 5 ms EWMA window folds its sleep into
// the contention model as zero-footprint, zero-traffic time, so its
// last working set and miss traffic leave its domain's sums and a
// domain peer's factors return to 1. Without the fold an emptied core
// would bill its last slice's footprint to its peers forever.
func TestSleepForgetsContentionFootprint(t *testing.T) {
	plat := arch.OctaBigLittle()
	m, err := machine.NewWithOptions(plat, machine.Options{Contention: contention.Spec{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(m, &noopBalancer{}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A streaming antagonist: 40M instructions of cache-busting work,
	// then a sleep far longer than the rest of the run.
	spec := &workload.ThreadSpec{
		Name:      "ant",
		Benchmark: "ant",
		Phases: []workload.Phase{{
			Name: "stream", Instructions: 40e6, ILP: 1.4, MemShare: 0.45, BranchShare: 0.05,
			WorkingSetIKB: 8, WorkingSetDKB: 8192, BranchEntropy: 0.3, MLP: 3,
			TLBPressureI: 0.05, TLBPressureD: 0.5, SleepAfterNs: 10e9,
		}},
	}
	id, err := k.Spawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	cm := m.Contention()
	if err := k.Run(5e6); err != nil {
		t.Fatal(err)
	}
	home := k.Task(id).Core()
	peer := arch.CoreID(-1)
	for c := 0; c < plat.NumCores(); c++ {
		if arch.CoreID(c) != home && cm.DomainOf(arch.CoreID(c)) == cm.DomainOf(home) {
			peer = arch.CoreID(c)
			break
		}
	}
	if peer < 0 {
		t.Fatalf("core %d has no domain peer", home)
	}
	if miss, lat := cm.MissScale(peer), cm.LatScale(peer); miss < 1.05 || lat < 1.01 {
		t.Fatalf("antagonist did not load its domain: peer miss %g lat %g", miss, lat)
	}

	if err := k.Run(600e6); err != nil {
		t.Fatal(err)
	}
	if st := k.Task(id).State(); st != StateSleeping {
		t.Fatalf("antagonist state %v, want sleeping", st)
	}
	if miss, lat := cm.MissScale(peer), cm.LatScale(peer); math.Abs(miss-1) > 1e-6 || math.Abs(lat-1) > 1e-6 {
		t.Errorf("peer factors after a long sleep: miss %g lat %g, want 1", miss, lat)
	}
	if p, u := cm.MaxPressure(), cm.MaxBWUtilization(); p > 1e-6 || u > 1e-6 {
		t.Errorf("domain sums after a long sleep: pressure %g, bandwidth util %g, want 0", p, u)
	}
}
