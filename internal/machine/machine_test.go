package machine

import (
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/workload"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(arch.QuadHMP())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// execOn runs one slice of ts on core c and returns its result. On
// QuadHMP core i has type i, so the core also names the type.
func execOn(m *Machine, ts *ThreadState, c arch.CoreID, maxDurNs int64) (SliceResult, error) {
	var res SliceResult
	err := m.ExecSliceOnCore(&res, ts, c, maxDurNs)
	return res, err
}

func simpleSpec(instr uint64, sleepNs int64, repeats int) *workload.ThreadSpec {
	return &workload.ThreadSpec{
		Name:      "t",
		Benchmark: "test",
		Phases: []workload.Phase{{
			Name: "p", Instructions: instr, ILP: 2, MemShare: 0.3, BranchShare: 0.1,
			WorkingSetIKB: 8, WorkingSetDKB: 64, BranchEntropy: 0.4, MLP: 2,
			TLBPressureI: 0.1, TLBPressureD: 0.2, SleepAfterNs: sleepNs,
		}},
		Repeats: repeats,
	}
}

func TestNewRejectsInvalidPlatform(t *testing.T) {
	if _, err := New(&arch.Platform{}); err == nil {
		t.Fatal("invalid platform accepted")
	}
}

func TestNewThreadStateValidates(t *testing.T) {
	m := newMachine(t)
	if _, err := m.NewThreadState(&workload.ThreadSpec{Name: "bad"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	ts, err := m.NewThreadState(simpleSpec(1e6, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ts.Finished() || ts.PhaseIndex() != 0 {
		t.Fatal("fresh thread state wrong")
	}
}

func TestExecSliceBasicCounters(t *testing.T) {
	m := newMachine(t)
	ts, _ := m.NewThreadState(simpleSpec(100e6, 0, 0))
	res, err := execOn(m, ts, 1, 1e6) // 1ms on the Big core
	if err != nil {
		t.Fatal(err)
	}
	if res.RunNs <= 0 || res.RunNs > 1e6 {
		t.Fatalf("RunNs = %d", res.RunNs)
	}
	if res.Instructions == 0 {
		t.Fatal("no instructions retired")
	}
	// Instruction class shares approximately match the phase mix.
	memFrac := float64(res.MemInstructions) / float64(res.Instructions)
	if memFrac < 0.28 || memFrac > 0.32 {
		t.Fatalf("mem fraction %.3f, want ~0.3", memFrac)
	}
	brFrac := float64(res.BranchInstructions) / float64(res.Instructions)
	if brFrac < 0.08 || brFrac > 0.12 {
		t.Fatalf("branch fraction %.3f, want ~0.1", brFrac)
	}
	if res.CyclesBusy == 0 || res.CyclesIdle == 0 {
		t.Fatalf("cycle split %d/%d", res.CyclesBusy, res.CyclesIdle)
	}
	// Cycle count consistent with frequency (1.5 GHz Big core).
	total := res.CyclesBusy + res.CyclesIdle
	wantCycles := uint64(float64(res.RunNs) * 1.5)
	if total < wantCycles*99/100 || total > wantCycles*101/100 {
		t.Fatalf("cycles %d, want ~%d", total, wantCycles)
	}
	if res.EnergyJ <= 0 {
		t.Fatal("no energy consumed")
	}
	if res.SleepNs != 0 || res.Finished {
		t.Fatal("endless busy thread should neither sleep nor finish")
	}
}

func TestExecSliceIPSConsistentWithModel(t *testing.T) {
	m := newMachine(t)
	ts, _ := m.NewThreadState(simpleSpec(1e9, 0, 0))
	met := m.SteadyMetrics(ts, 0)
	huge := m.Platform().Type(0)
	res, err := execOn(m, ts, 0, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	gotIPS := float64(res.Instructions) / (float64(res.RunNs) * 1e-9)
	wantIPS := met.IPS(huge)
	if gotIPS < wantIPS*0.99 || gotIPS > wantIPS*1.01 {
		t.Fatalf("slice IPS %.4g, model IPS %.4g", gotIPS, wantIPS)
	}
}

func TestExecSliceFinishes(t *testing.T) {
	m := newMachine(t)
	ts, _ := m.NewThreadState(simpleSpec(1e6, 0, 1))
	// 1M instructions at >0.5e9 IPS finish well inside 100ms.
	res, err := execOn(m, ts, 3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || !ts.Finished() {
		t.Fatal("thread did not finish")
	}
	if res.Instructions != 1e6 {
		t.Fatalf("retired %d instructions, want 1e6", res.Instructions)
	}
	if res.RunNs >= 100e6 {
		t.Fatal("slice should end early at completion")
	}
	if _, err := execOn(m, ts, 3, 1e6); err != ErrFinished {
		t.Fatalf("want ErrFinished, got %v", err)
	}
}

func TestExecSliceSleepPoint(t *testing.T) {
	m := newMachine(t)
	ts, _ := m.NewThreadState(simpleSpec(1e6, 5e6, 0))
	res, err := execOn(m, ts, 1, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if res.SleepNs != 5e6 {
		t.Fatalf("SleepNs = %d, want 5e6", res.SleepNs)
	}
	if res.Finished {
		t.Fatal("repeating thread reported finished")
	}
	// After the sleep point the thread resumes at phase 0 again.
	if ts.PhaseIndex() != 0 {
		t.Fatalf("phase index %d after wrap", ts.PhaseIndex())
	}
}

func TestExecSliceSleepJitterPropagates(t *testing.T) {
	// Slice shorter than the phase: no sleep yet.
	m := newMachine(t)
	ts, _ := m.NewThreadState(simpleSpec(1e9, 5e6, 0))
	res, err := execOn(m, ts, 1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if res.SleepNs != 0 {
		t.Fatal("mid-phase slice must not sleep")
	}
}

func TestExecSliceMultiPhase(t *testing.T) {
	m := newMachine(t)
	spec := &workload.ThreadSpec{
		Name:      "mp",
		Benchmark: "test",
		Phases: []workload.Phase{
			{Name: "a", Instructions: 1e5, ILP: 3, MemShare: 0.2, BranchShare: 0.1,
				WorkingSetIKB: 4, WorkingSetDKB: 16, BranchEntropy: 0.2, MLP: 2},
			{Name: "b", Instructions: 1e5, ILP: 1.5, MemShare: 0.4, BranchShare: 0.15,
				WorkingSetIKB: 8, WorkingSetDKB: 512, BranchEntropy: 0.6, MLP: 2},
		},
		Repeats: 2,
	}
	ts, err := m.NewThreadState(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execOn(m, ts, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("two repeats of 2x1e5 instructions should finish in 1s")
	}
	if res.Instructions != 4e5 {
		t.Fatalf("retired %d, want 4e5", res.Instructions)
	}
	cycles, _ := ts.Progress()
	if cycles != 2 {
		t.Fatalf("cyclesDone = %d", cycles)
	}
}

func TestExecSliceRepeatsAndPhaseWrap(t *testing.T) {
	m := newMachine(t)
	spec := simpleSpec(1e5, 0, 3)
	ts, _ := m.NewThreadState(spec)
	totalInstr := uint64(0)
	for !ts.Finished() {
		res, err := execOn(m, ts, 2, 1e5)
		if err != nil {
			t.Fatal(err)
		}
		totalInstr += res.Instructions
	}
	if totalInstr != 3e5 {
		t.Fatalf("total %d, want 3e5", totalInstr)
	}
}

func TestExecSliceInvalidDuration(t *testing.T) {
	m := newMachine(t)
	ts, _ := m.NewThreadState(simpleSpec(1e6, 0, 0))
	if _, err := execOn(m, ts, 0, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := execOn(m, ts, 0, -5); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestCoreTypeChangesThroughput(t *testing.T) {
	m := newMachine(t)
	specs, err := workload.Benchmark("swaptions", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tsHuge, _ := m.NewThreadState(&specs[0])
	specs2, _ := workload.Benchmark("swaptions", 1, 1)
	tsSmall, _ := m.NewThreadState(&specs2[0])

	rh, err := execOn(m, tsHuge, 0, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := execOn(m, tsSmall, 3, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	if rh.Instructions <= 2*rs.Instructions {
		t.Fatalf("Huge (%d instr) should far outpace Small (%d instr) on compute code",
			rh.Instructions, rs.Instructions)
	}
	// But energy per instruction must favour the small core.
	epiHuge := rh.EnergyJ / float64(rh.Instructions)
	epiSmall := rs.EnergyJ / float64(rs.Instructions)
	if epiSmall >= epiHuge {
		t.Fatalf("EPI: Small %.3g >= Huge %.3g", epiSmall, epiHuge)
	}
}

func TestSteadyMetricsMemoised(t *testing.T) {
	m := newMachine(t)
	ts, _ := m.NewThreadState(simpleSpec(1e6, 0, 0))
	a := m.SteadyMetrics(ts, 2)
	b := m.SteadyMetrics(ts, 2)
	if a != b {
		t.Fatal("memoised metrics differ between calls")
	}
}

func TestEnergyAccumulatesOverSlices(t *testing.T) {
	m := newMachine(t)
	ts, _ := m.NewThreadState(simpleSpec(1e9, 0, 0))
	var total float64
	for i := 0; i < 10; i++ {
		res, err := execOn(m, ts, 1, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		total += res.EnergyJ
	}
	// 10ms on the Big core: energy must be in the right ballpark
	// (between idle and peak power times duration).
	pm := m.PowerModels().ForType(1)
	phase := ts.CurrentPhase()
	lo := pm.LeakW() * 0.01
	hi := pm.BusyPower(m.Platform().Type(1).PeakIPC, phase) * 0.01
	if total < lo || total > hi {
		t.Fatalf("10ms energy %.4g outside [%.4g, %.4g]", total, lo, hi)
	}
}

func BenchmarkExecSlice(b *testing.B) {
	m, err := New(arch.QuadHMP())
	if err != nil {
		b.Fatal(err)
	}
	ts, err := m.NewThreadState(simpleSpec(1<<62, 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	var res SliceResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ExecSliceOnCore(&res, ts, 1, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}
