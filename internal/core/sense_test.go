package core

import (
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

// These tests validate the estimation step (Eq. 4-7): the per-thread
// measurements assembled from context-switch counter samples must match
// the underlying steady-state model, both for a solo thread and under
// CFS time-sharing interference.

// senseCapture is a balancer that senses every epoch and stores the
// last measurement per thread.
type senseCapture struct {
	last map[kernel.ThreadID]Measurement
}

func (s *senseCapture) Name() string { return "sense-capture" }
func (s *senseCapture) Rebalance(k *kernel.Kernel, _ kernel.Time,
	threads []hpc.ThreadSample, _ []hpc.CoreEpochSample) {
	plat := k.Platform()
	for _, t := range k.ActiveTasks() {
		if m, st := SenseChecked(hpc.FindThread(threads, int(t.ID)), t.Utilization(k.Config().EpochNs), plat); st == SenseOK {
			s.last[t.ID] = m
		}
	}
}

func steadySpec() *workload.ThreadSpec {
	return &workload.ThreadSpec{
		Name:      "steady",
		Benchmark: "steady",
		Phases: []workload.Phase{{
			Name: "p", Instructions: 1 << 40, ILP: 2.2, MemShare: 0.32, BranchShare: 0.12,
			WorkingSetIKB: 10, WorkingSetDKB: 384, BranchEntropy: 0.45, MLP: 2.4,
			TLBPressureI: 0.1, TLBPressureD: 0.3,
		}},
	}
}

func TestSensedMeasurementMatchesSteadyState(t *testing.T) {
	// One thread alone on one core: the sensed IPC, rates, and power
	// must match the analytical steady state (no noise configured).
	plat, err := arch.HomogeneousPlatform(arch.BigCore(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(plat)
	if err != nil {
		t.Fatal(err)
	}
	cap := &senseCapture{last: map[kernel.ThreadID]Measurement{}}
	k, err := kernel.New(m, cap, kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := steadySpec()
	id, err := k.Spawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(300e6); err != nil {
		t.Fatal(err)
	}
	meas, ok := cap.last[id]
	if !ok {
		t.Fatal("no measurement sensed")
	}
	want := m.SteadyMetrics(k.Task(id).MachineState(), 0)
	relErr := func(got, exp float64) float64 {
		if exp == 0 {
			return math.Abs(got)
		}
		return math.Abs(got-exp) / exp
	}
	if e := relErr(meas.IPC, want.IPC); e > 0.01 {
		t.Fatalf("sensed IPC %.4f vs model %.4f (err %.2f%%)", meas.IPC, want.IPC, 100*e)
	}
	if e := relErr(meas.MissL1D, want.MissRateL1D); e > 0.02 {
		t.Fatalf("sensed mr$d %.5f vs model %.5f", meas.MissL1D, want.MissRateL1D)
	}
	if e := relErr(meas.Mispredict, want.MispredictRate); e > 0.02 {
		t.Fatalf("sensed mrb %.5f vs model %.5f", meas.Mispredict, want.MispredictRate)
	}
	if e := relErr(meas.MemShare, spec.Phases[0].MemShare); e > 0.02 {
		t.Fatalf("sensed Imsh %.4f vs spec %.4f", meas.MemShare, spec.Phases[0].MemShare)
	}
	if meas.Util < 0.95 {
		t.Fatalf("solo busy thread utilisation %.3f", meas.Util)
	}
}

func TestSensedMeasurementUnderTimeSharing(t *testing.T) {
	// Three identical threads sharing one core: IPS per thread drops to
	// ~1/3 of solo, but the *per-thread IPC and rates while running*
	// stay at the steady state — exactly the property Eq. 4's
	// per-slice normalisation is designed to deliver.
	plat, err := arch.HomogeneousPlatform(arch.BigCore(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(plat)
	if err != nil {
		t.Fatal(err)
	}
	cap := &senseCapture{last: map[kernel.ThreadID]Measurement{}}
	k, err := kernel.New(m, cap, kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ids []kernel.ThreadID
	for i := 0; i < 3; i++ {
		id, err := k.Spawn(steadySpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := k.Run(600e6); err != nil {
		t.Fatal(err)
	}
	want := m.SteadyMetrics(k.Task(ids[0]).MachineState(), 0)
	soloIPS := want.IPS(plat.Type(0))
	for _, id := range ids {
		meas, ok := cap.last[id]
		if !ok {
			t.Fatalf("thread %d not sensed", id)
		}
		// IPC while running is interference-free in this substrate.
		if math.Abs(meas.IPC-want.IPC)/want.IPC > 0.02 {
			t.Fatalf("time-shared IPC %.4f vs steady %.4f", meas.IPC, want.IPC)
		}
		// But the epoch-average IPS reflects the 1/3 time share... IPS in
		// Measurement is per-running-time (Eq. 4 normalises by tau), so it
		// too matches solo.
		if math.Abs(meas.IPS-soloIPS)/soloIPS > 0.02 {
			t.Fatalf("per-runtime IPS %.4g vs solo %.4g", meas.IPS, soloIPS)
		}
	}
}

func TestSenseSkipsThreadsThatNeverRan(t *testing.T) {
	plat := arch.QuadHMP()
	sample := &hpc.ThreadEpochSample{}
	if _, st := SenseChecked(sample, 0.2, plat); st != SenseNoSample {
		t.Fatalf("empty sample: status %v, want no sample", st)
	}
	// Zero instructions: also rejected.
	sample.PerCore = append(sample.PerCore, hpc.CoreCounters{Core: 0, C: hpc.Counters{RunNs: 100}})
	if _, st := SenseChecked(sample, 0.2, plat); st != SenseNoSample {
		t.Fatalf("zero-instruction sample: status %v, want no sample", st)
	}
}
