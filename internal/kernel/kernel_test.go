package kernel

import (
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/hpc"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

// noopBalancer leaves placement to fork-time choice.
type noopBalancer struct{ calls int }

func (b *noopBalancer) Name() string { return "noop" }
func (b *noopBalancer) Rebalance(*Kernel, Time, []hpc.ThreadSample, []hpc.CoreEpochSample) {
	b.calls++
}

// spreadBalancer round-robins all active tasks across cores each epoch.
type spreadBalancer struct{}

func (spreadBalancer) Name() string { return "spread" }
func (spreadBalancer) Rebalance(k *Kernel, _ Time, _ []hpc.ThreadSample, _ []hpc.CoreEpochSample) {
	n := k.NumCores()
	for i, t := range k.ActiveTasks() {
		_ = k.Migrate(t.ID, arch.CoreID(i%n))
	}
}

func busySpec(name string) *workload.ThreadSpec {
	return &workload.ThreadSpec{
		Name:      name,
		Benchmark: "busy",
		Phases: []workload.Phase{{
			Name: "spin", Instructions: 50e6, ILP: 2, MemShare: 0.3, BranchShare: 0.1,
			WorkingSetIKB: 8, WorkingSetDKB: 64, BranchEntropy: 0.4, MLP: 2,
			TLBPressureI: 0.1, TLBPressureD: 0.2,
		}},
	}
}

func interactiveSpec(name string, sleepNs int64) *workload.ThreadSpec {
	s := busySpec(name)
	s.Phases[0].Instructions = 5e6
	s.Phases[0].SleepAfterNs = sleepNs
	return s
}

func newKernel(t *testing.T, plat *arch.Platform, b Balancer) *Kernel {
	t.Helper()
	m, err := machine.New(plat)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(m, b, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestWeightForNice(t *testing.T) {
	if WeightForNice(0) != 1024 {
		t.Fatalf("nice 0 weight %d", WeightForNice(0))
	}
	if w := WeightForNice(-5); w <= 2*1024 {
		t.Fatalf("nice -5 weight %d too small", w)
	}
	if w := WeightForNice(19); w <= 0 || w >= 1024 {
		t.Fatalf("nice 19 weight %d", w)
	}
	// Roughly 1.25x per level.
	r := float64(WeightForNice(-1)) / float64(WeightForNice(0))
	if math.Abs(r-1.25) > 0.01 {
		t.Fatalf("weight ratio per nice level %g", r)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SchedLatencyNs = 0 },
		func(c *Config) { c.MinGranularityNs = 0 },
		func(c *Config) { c.MinGranularityNs = c.SchedLatencyNs * 2 },
		func(c *Config) { c.EpochNs = c.SchedLatencyNs / 2 },
		func(c *Config) { c.MigrationPenaltyNs = -1 },
	}
	for i, mod := range bad {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	m, _ := machine.New(arch.QuadHMP())
	if _, err := New(nil, &noopBalancer{}, DefaultConfig()); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := New(m, nil, DefaultConfig()); err == nil {
		t.Fatal("nil balancer accepted")
	}
	c := DefaultConfig()
	c.EpochNs = 0
	if _, err := New(m, &noopBalancer{}, c); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestSpawnPlacesOnLeastLoaded(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	var cores []arch.CoreID
	for i := 0; i < 4; i++ {
		id, err := k.Spawn(busySpec("t"))
		if err != nil {
			t.Fatal(err)
		}
		cores = append(cores, k.Task(id).Core())
	}
	seen := map[arch.CoreID]bool{}
	for _, c := range cores {
		if seen[c] {
			t.Fatalf("fork balancing stacked two tasks: %v", cores)
		}
		seen[c] = true
	}
}

func TestSpawnRejectsInvalidSpec(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	if _, err := k.Spawn(&workload.ThreadSpec{Name: "bad"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSingleBusyTaskAccounting(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	id, _ := k.Spawn(busySpec("solo"))
	if err := k.Run(300e6); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	task := k.Task(id)
	home := int(task.Core())
	c := &s.Cores[home]
	// The task's core should be busy nearly the whole span.
	if float64(c.BusyNs) < 0.95*300e6 {
		t.Fatalf("home core busy only %dns of 300ms", c.BusyNs)
	}
	// All other cores should have slept nearly the whole span.
	for i := range s.Cores {
		if i == home {
			continue
		}
		if float64(s.Cores[i].SleepNs) < 0.95*300e6 {
			t.Fatalf("idle core %d slept only %dns", i, s.Cores[i].SleepNs)
		}
		if s.Cores[i].Instr != 0 {
			t.Fatalf("idle core %d retired %d instructions", i, s.Cores[i].Instr)
		}
		// Gated cores still leak a little energy.
		if s.Cores[i].EnergyJ <= 0 {
			t.Fatalf("idle core %d consumed no energy", i)
		}
	}
	if s.TotalInstructions() == 0 || s.TotalEnergyJ() <= 0 {
		t.Fatal("no work accounted")
	}
	if task.TotalInstructions() != s.TotalInstructions() {
		t.Fatal("task/core instruction accounting disagrees")
	}
}

func TestCFSFairnessEqualTasks(t *testing.T) {
	// Two identical tasks pinned (by fork placement) to the same single
	// core must share it ~50/50.
	plat, err := arch.HomogeneousPlatform(arch.BigCore(), 1)
	if err != nil {
		t.Fatal(err)
	}
	k := newKernel(t, plat, &noopBalancer{})
	a, _ := k.Spawn(busySpec("a"))
	b, _ := k.Spawn(busySpec("b"))
	if err := k.Run(600e6); err != nil {
		t.Fatal(err)
	}
	ra := k.Task(a).TotalRunNs()
	rb := k.Task(b).TotalRunNs()
	share := float64(ra) / float64(ra+rb)
	if share < 0.47 || share > 0.53 {
		t.Fatalf("CFS share %.3f, want ~0.5 (a=%d b=%d)", share, ra, rb)
	}
}

func TestCFSNiceWeighting(t *testing.T) {
	plat, _ := arch.HomogeneousPlatform(arch.BigCore(), 1)
	k := newKernel(t, plat, &noopBalancer{})
	hi := busySpec("hi")
	hi.Nice = -5
	lo := busySpec("lo")
	lo.Nice = 5
	a, _ := k.Spawn(hi)
	b, _ := k.Spawn(lo)
	if err := k.Run(600e6); err != nil {
		t.Fatal(err)
	}
	ra := float64(k.Task(a).TotalRunNs())
	rb := float64(k.Task(b).TotalRunNs())
	wantRatio := float64(WeightForNice(-5)) / float64(WeightForNice(5))
	gotRatio := ra / rb
	if gotRatio < wantRatio*0.7 || gotRatio > wantRatio*1.3 {
		t.Fatalf("nice ratio %.2f, want ~%.2f", gotRatio, wantRatio)
	}
}

func TestInteractiveTaskSleepsAndWakes(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	id, _ := k.Spawn(interactiveSpec("ia", 10e6))
	if err := k.Run(500e6); err != nil {
		t.Fatal(err)
	}
	task := k.Task(id)
	if task.State() == StateFinished {
		t.Fatal("endless interactive task finished")
	}
	run := task.TotalRunNs()
	if run <= 0 || run >= 500e6 {
		t.Fatalf("interactive run time %d implausible", run)
	}
	// It must have slept a significant fraction.
	if float64(run) > 0.9*500e6 {
		t.Fatal("interactive task never slept")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFiniteTaskFinishes(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	spec := busySpec("finite")
	spec.Repeats = 2
	id, _ := k.Spawn(spec)
	if err := k.Run(2e9); err != nil {
		t.Fatal(err)
	}
	task := k.Task(id)
	if task.State() != StateFinished {
		t.Fatalf("task state %v", task.State())
	}
	if task.TotalInstructions() != 100e6 {
		t.Fatalf("retired %d, want 1e8", task.TotalInstructions())
	}
	st := k.Stats()
	if st.Tasks[0].FinishedAt <= 0 || st.Tasks[0].FinishedAt > 2e9 {
		t.Fatalf("finish time %d", st.Tasks[0].FinishedAt)
	}
}

func TestMigrateRunnableSleepingAndUnknown(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	id, _ := k.Spawn(busySpec("m"))
	// Runnable (not yet run): migrate immediately.
	if err := k.Migrate(id, 3); err != nil {
		t.Fatal(err)
	}
	if k.Task(id).Core() != 3 {
		t.Fatalf("core after migrate = %d", k.Task(id).Core())
	}
	if k.Task(id).Migrations() != 1 {
		t.Fatalf("migrations = %d", k.Task(id).Migrations())
	}
	// Same-core migration is a no-op.
	if err := k.Migrate(id, 3); err != nil {
		t.Fatal(err)
	}
	if k.Task(id).Migrations() != 1 {
		t.Fatal("same-core migration counted")
	}
	if err := k.Migrate(99, 0); err == nil {
		t.Fatal("unknown task accepted")
	}
	if err := k.Migrate(id, 77); err == nil {
		t.Fatal("invalid core accepted")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateRunningAppliedAtSwitch(t *testing.T) {
	plat, _ := arch.HomogeneousPlatform(arch.BigCore(), 2)
	k := newKernel(t, plat, &noopBalancer{})
	id, _ := k.Spawn(busySpec("r"))
	if err := k.Run(5e6); err != nil { // task is now mid-slice or between
		t.Fatal(err)
	}
	if err := k.Migrate(id, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(100e6); err != nil {
		t.Fatal(err)
	}
	if k.Task(id).Core() != 1 {
		t.Fatalf("pending migration not applied; core=%d", k.Task(id).Core())
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The second core must have done work after the migration.
	if k.Stats().Cores[1].Instr == 0 {
		t.Fatal("migrated task never ran on destination")
	}
}

func TestMigrateFinishedRejected(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	spec := busySpec("f")
	spec.Repeats = 1
	id, _ := k.Spawn(spec)
	if err := k.Run(2e9); err != nil {
		t.Fatal(err)
	}
	if k.Task(id).State() != StateFinished {
		t.Fatal("task should be finished")
	}
	if err := k.Migrate(id, 1); err == nil {
		t.Fatal("migrating finished task accepted")
	}
}

func TestEpochTicksAndBalancerCalls(t *testing.T) {
	b := &noopBalancer{}
	k := newKernel(t, arch.QuadHMP(), b)
	_, _ = k.Spawn(busySpec("x"))
	if err := k.Run(600e6); err != nil {
		t.Fatal(err)
	}
	// 600ms / 60ms = 10 epochs.
	if b.calls != 10 {
		t.Fatalf("balancer called %d times, want 10", b.calls)
	}
	if k.Stats().Epochs != 10 {
		t.Fatalf("Epochs stat %d", k.Stats().Epochs)
	}
}

func TestBalancerReceivesSamples(t *testing.T) {
	var got []hpc.ThreadSample
	var gotCores []hpc.CoreEpochSample
	b := balancerFunc(func(k *Kernel, now Time, th []hpc.ThreadSample, cs []hpc.CoreEpochSample) {
		if got != nil {
			return
		}
		// Snapshot views are only valid until the next epoch, so the
		// first epoch's samples must be copied out to survive Run.
		for _, ts := range th {
			c := &hpc.ThreadEpochSample{PerCore: append([]hpc.CoreCounters(nil), ts.Sample.PerCore...)}
			got = append(got, hpc.ThreadSample{Thread: ts.Thread, Sample: c})
		}
		gotCores = append([]hpc.CoreEpochSample(nil), cs...)
	})
	k := newKernel(t, arch.QuadHMP(), b)
	id, _ := k.Spawn(busySpec("sampled"))
	if err := k.Run(120e6); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("balancer never called")
	}
	s := hpc.FindThread(got, int(id))
	if s == nil {
		t.Fatal("running thread missing from samples")
	}
	total := s.Total()
	if total.Instructions == 0 || total.RunNs == 0 || total.EnergyJ <= 0 {
		t.Fatalf("empty sample: %+v", total)
	}
	if len(gotCores) != 4 {
		t.Fatalf("%d core samples", len(gotCores))
	}
	// Idle cores show sleep time in their epoch sample.
	sleepSeen := false
	for _, c := range gotCores {
		if c.SleepNs > 0 {
			sleepSeen = true
		}
	}
	if !sleepSeen {
		t.Fatal("no idle core reported sleep in epoch sample")
	}
}

// balancerFunc adapts a function to the Balancer interface.
type balancerFunc func(*Kernel, Time, []hpc.ThreadSample, []hpc.CoreEpochSample)

func (balancerFunc) Name() string { return "func" }
func (f balancerFunc) Rebalance(k *Kernel, now Time, th []hpc.ThreadSample, cs []hpc.CoreEpochSample) {
	f(k, now, th, cs)
}

func TestSpreadBalancerMovesWork(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), spreadBalancer{})
	// Eight busy tasks: fork places two per core; the balancer keeps
	// them spread. All cores should be busy.
	for i := 0; i < 8; i++ {
		_, _ = k.Spawn(busySpec("s"))
	}
	if err := k.Run(600e6); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	for i := range s.Cores {
		if float64(s.Cores[i].BusyNs) < 0.9*600e6 {
			t.Fatalf("core %d busy only %dms under spread", i, s.Cores[i].BusyNs/1e6)
		}
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *RunStats {
		k := newKernel(t, arch.QuadHMP(), spreadBalancer{})
		specs, err := workload.Mix("Mix5", 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if _, err := k.Spawn(&specs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(400e6); err != nil {
			t.Fatal(err)
		}
		return k.Stats()
	}
	a, b := run(), run()
	if a.TotalInstructions() != b.TotalInstructions() {
		t.Fatalf("instruction totals diverge: %d vs %d", a.TotalInstructions(), b.TotalInstructions())
	}
	if a.TotalEnergyJ() != b.TotalEnergyJ() {
		t.Fatalf("energy totals diverge: %g vs %g", a.TotalEnergyJ(), b.TotalEnergyJ())
	}
	if a.Migrations != b.Migrations {
		t.Fatalf("migration counts diverge: %d vs %d", a.Migrations, b.Migrations)
	}
}

func TestRunExtension(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	_, _ = k.Spawn(busySpec("e"))
	if err := k.Run(100e6); err != nil {
		t.Fatal(err)
	}
	mid := k.Stats().TotalInstructions()
	if err := k.Run(200e6); err != nil {
		t.Fatal(err)
	}
	end := k.Stats().TotalInstructions()
	if end <= mid {
		t.Fatalf("no progress after extension: %d -> %d", mid, end)
	}
	if err := k.Run(100e6); err == nil {
		t.Fatal("non-monotonic horizon accepted")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyConservation(t *testing.T) {
	// Per-core: busy+sleep time must cover (almost) the whole span; the
	// small gap is the parked remainder at the horizon.
	k := newKernel(t, arch.QuadHMP(), spreadBalancer{})
	specs, _ := workload.IMB(workload.Medium, workload.Medium, 4, 3)
	for i := range specs {
		_, _ = k.Spawn(&specs[i])
	}
	if err := k.Run(500e6); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	for i := range s.Cores {
		covered := s.Cores[i].BusyNs + s.Cores[i].SleepNs
		if covered < 490e6 || covered > 501e6 {
			t.Fatalf("core %d covered %dns of 500ms", i, covered)
		}
	}
}

func TestTaskAndCoreAccountingAgree(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), spreadBalancer{})
	specs, _ := workload.Mix("Mix1", 2, 9)
	for i := range specs {
		_, _ = k.Spawn(&specs[i])
	}
	if err := k.Run(300e6); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	var taskInstr uint64
	var taskRun int64
	for _, ts := range s.Tasks {
		taskInstr += ts.Instr
		taskRun += ts.RunNs
	}
	var coreInstr uint64
	var coreBusy int64
	for _, cs := range s.Cores {
		coreInstr += cs.Instr
		coreBusy += cs.BusyNs
	}
	if taskInstr != coreInstr {
		t.Fatalf("instr mismatch: tasks %d, cores %d", taskInstr, coreInstr)
	}
	if taskRun != coreBusy {
		t.Fatalf("time mismatch: tasks %d, cores %d", taskRun, coreBusy)
	}
}

func TestStatsString(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	_, _ = k.Spawn(busySpec("s"))
	_ = k.Run(100e6)
	if s := k.Stats().String(); len(s) == 0 {
		t.Fatal("empty stats string")
	}
}

func TestHeterogeneousThroughputVisible(t *testing.T) {
	// The same benchmark pinned to Huge vs Small must retire vastly
	// different instruction counts — end-to-end check that kernel wiring
	// preserves the machine model's heterogeneity.
	pin := func(core arch.CoreID) uint64 {
		k := newKernel(t, arch.QuadHMP(), balancerFunc(func(k *Kernel, _ Time, _ []hpc.ThreadSample, _ []hpc.CoreEpochSample) {
			for _, task := range k.ActiveTasks() {
				_ = k.Migrate(task.ID, core)
			}
		}))
		specs, _ := workload.Benchmark("swaptions", 1, 4)
		id, _ := k.Spawn(&specs[0])
		if err := k.Run(500e6); err != nil {
			t.Fatal(err)
		}
		return k.Task(id).TotalInstructions()
	}
	huge := pin(0)
	small := pin(3)
	if huge < 3*small {
		t.Fatalf("Huge %d vs Small %d: heterogeneity lost in kernel", huge, small)
	}
}

func BenchmarkKernelQuadHMP8Threads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, _ := machine.New(arch.QuadHMP())
		k, _ := New(m, &noopBalancer{}, DefaultConfig())
		specs, _ := workload.Mix("Mix1", 4, 1)
		for j := range specs {
			_, _ = k.Spawn(&specs[j])
		}
		if err := k.Run(200e6); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTrackedLoadLifecycle(t *testing.T) {
	// PELT exposure: a busy task converges to load ~1; an interactive
	// task stays well below; load >= utilization always.
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	busy, _ := k.Spawn(busySpec("busy"))
	idle, _ := k.Spawn(interactiveSpec("idle", 40e6))
	if err := k.Run(600e6); err != nil {
		t.Fatal(err)
	}
	bt := k.Task(busy)
	it := k.Task(idle)
	if l := bt.TrackedLoad(); l < 0.9 {
		t.Fatalf("busy tracked load %g", l)
	}
	if l := it.TrackedLoad(); l > 0.6 {
		t.Fatalf("interactive tracked load %g", l)
	}
	for _, task := range []*Task{bt, it} {
		if task.TrackedUtilization() > task.TrackedLoad()+1e-9 {
			t.Fatalf("utilization %g exceeds load %g", task.TrackedUtilization(), task.TrackedLoad())
		}
	}
}

func TestTrackedLoadSeparatesSharers(t *testing.T) {
	// Two busy tasks sharing one core: both have tracked load ~1
	// (runnable all the time) but utilization ~0.5 — the signal GTS
	// up-migration depends on.
	plat, _ := arch.HomogeneousPlatform(arch.BigCore(), 1)
	k := newKernel(t, plat, &noopBalancer{})
	a, _ := k.Spawn(busySpec("a"))
	b, _ := k.Spawn(busySpec("b"))
	if err := k.Run(600e6); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ThreadID{a, b} {
		task := k.Task(id)
		if l := task.TrackedLoad(); l < 0.9 {
			t.Fatalf("sharer load %g, want ~1", l)
		}
		if u := task.TrackedUtilization(); u < 0.3 || u > 0.7 {
			t.Fatalf("sharer utilization %g, want ~0.5", u)
		}
	}
}

func TestByBenchmark(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), spreadBalancer{})
	specs, err := workload.Mix("Mix5", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		_, _ = k.Spawn(&specs[i])
	}
	if err := k.Run(400e6); err != nil {
		t.Fatal(err)
	}
	s := k.Stats()
	groups := s.ByBenchmark()
	if len(groups) != 2 { // bodytrack + x264H-crew
		t.Fatalf("%d benchmark groups", len(groups))
	}
	var total uint64
	for _, g := range groups {
		if g.Tasks != 2 {
			t.Fatalf("%s has %d tasks", g.Benchmark, g.Tasks)
		}
		if g.IPS(s.SpanNs) <= 0 {
			t.Fatalf("%s has no throughput", g.Benchmark)
		}
		total += g.Instr
	}
	if total != s.TotalInstructions() {
		t.Fatalf("per-benchmark totals %d != %d", total, s.TotalInstructions())
	}
	// Sorted by name.
	if groups[0].Benchmark > groups[1].Benchmark {
		t.Fatal("groups not sorted")
	}
}

// TestActiveTasksFollowTheLiveSet spawns short tasks across many
// epochs, next to long-lived ones, so tasks exit between most
// boundaries. At every boundary ActiveTasks must equal the spawn-order
// filter of the non-finished tasks, and the compacted live list must
// hold exactly those tasks.
func TestActiveTasksFollowTheLiveSet(t *testing.T) {
	boundaries := 0
	check := func(k *Kernel, _ Time, _ []hpc.ThreadSample, _ []hpc.CoreEpochSample) {
		boundaries++
		var want []ThreadID
		for _, task := range k.Tasks() {
			if task.State() != StateFinished {
				want = append(want, task.ID)
			}
		}
		got := k.ActiveTasks()
		if len(got) != len(want) || len(k.live) != len(want) {
			t.Fatalf("boundary %d: %d active, %d live, want %d", boundaries, len(got), len(k.live), len(want))
		}
		for i, id := range want {
			if got[i].ID != id || k.live[i].ID != id {
				t.Fatalf("boundary %d, slot %d: active %d, live %d, want %d", boundaries, i, got[i].ID, k.live[i].ID, id)
			}
		}
	}
	k := newKernel(t, arch.QuadHMP(), balancerFunc(check))
	for step := 0; step < 60; step++ {
		for i := 0; i < 3; i++ {
			spec := busySpec("short")
			spec.Phases[0].Instructions = uint64(1+(step+i)%7) * 1e6
			spec.Repeats = 1
			if _, err := k.Spawn(spec); err != nil {
				t.Fatal(err)
			}
		}
		if step%10 == 0 {
			if _, err := k.Spawn(busySpec("long")); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(k.Now() + 17e6); err != nil {
			t.Fatal(err)
		}
	}
	if boundaries < 10 {
		t.Fatalf("only %d epoch boundaries", boundaries)
	}
	if s := k.Stats(); len(s.Tasks) != 186 || len(k.live) >= len(s.Tasks)/2 {
		t.Fatalf("%d tasks in stats, %d live: exited tasks were not compacted out", len(s.Tasks), len(k.live))
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
