package kernel

import (
	"errors"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/hpc"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

// rqSnapshot captures every core's runqueue accounting, the invariant
// that must be untouched by rejected migrations.
type rqSnapshot struct {
	lens  []int
	loads []int64
}

func snapshotRunqueues(k *Kernel) rqSnapshot {
	s := rqSnapshot{
		lens:  make([]int, k.NumCores()),
		loads: make([]int64, k.NumCores()),
	}
	for c := 0; c < k.NumCores(); c++ {
		s.lens[c] = k.RunqueueLen(arch.CoreID(c))
		s.loads[c] = k.CoreLoad(arch.CoreID(c))
	}
	return s
}

func assertRunqueuesUnchanged(t *testing.T, k *Kernel, before rqSnapshot, ctx string) {
	t.Helper()
	for c := 0; c < k.NumCores(); c++ {
		if got := k.RunqueueLen(arch.CoreID(c)); got != before.lens[c] {
			t.Fatalf("%s: core %d runqueue length changed %d -> %d", ctx, c, before.lens[c], got)
		}
		if got := k.CoreLoad(arch.CoreID(c)); got != before.loads[c] {
			t.Fatalf("%s: core %d load changed %d -> %d", ctx, c, before.loads[c], got)
		}
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants violated: %v", ctx, err)
	}
}

func TestMigrateErrorPathsLeaveRunqueuesUntouched(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	id, err := k.Spawn(busySpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(busySpec("b")); err != nil {
		t.Fatal(err)
	}
	if err := k.SetAffinity(id, []arch.CoreID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200e6); err != nil {
		t.Fatal(err)
	}
	before := snapshotRunqueues(k)
	migBefore := k.Task(id).Migrations()

	// Out-of-range destination cores: negative and past the last core.
	if err := k.Migrate(id, arch.CoreID(-1)); err == nil {
		t.Fatal("negative core accepted")
	}
	if err := k.Migrate(id, arch.CoreID(k.NumCores())); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	assertRunqueuesUnchanged(t, k, before, "out-of-range core")

	// Destination outside the thread's affinity mask.
	if err := k.Migrate(id, 3); err == nil {
		t.Fatal("migration outside the affinity mask accepted")
	}
	assertRunqueuesUnchanged(t, k, before, "outside affinity mask")

	// Unknown thread id.
	if err := k.Migrate(9999, 0); err == nil {
		t.Fatal("unknown thread accepted")
	}
	assertRunqueuesUnchanged(t, k, before, "unknown thread")

	if got := k.Task(id).Migrations(); got != migBefore {
		t.Fatalf("rejected migrations were counted: %d -> %d", migBefore, got)
	}
}

func TestMigrateExitedThreadRejectedWithoutSideEffects(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	spec := busySpec("finite")
	spec.Repeats = 1
	id, err := k.Spawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(busySpec("bg")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(2e9); err != nil {
		t.Fatal(err)
	}
	if k.Task(id).State() != StateFinished {
		t.Fatal("task should have exited")
	}
	before := snapshotRunqueues(k)
	migBefore := k.Task(id).Migrations()
	if err := k.Migrate(id, 1); err == nil {
		t.Fatal("migrating an exited thread accepted")
	}
	assertRunqueuesUnchanged(t, k, before, "exited thread")
	if got := k.Task(id).Migrations(); got != migBefore {
		t.Fatalf("exited thread's migration count changed: %d -> %d", migBefore, got)
	}
}

// refuseAll is a FaultInjector that rejects every migration and passes
// sensing through untouched.
type refuseAll struct{ calls int }

var errRefused = errors.New("refused by test injector")

func (r *refuseAll) FilterEpoch(epoch int, now Time, threads []ThreadSample, cores []CoreEpochSample) ([]ThreadSample, []CoreEpochSample) {
	return threads, cores
}

func (r *refuseAll) MigrateFault(now Time, id ThreadID, dst arch.CoreID) error {
	r.calls++
	return errRefused
}

func TestInjectedMigrateRefusalLeavesAccountingUnchanged(t *testing.T) {
	m, err := machine.New(arch.QuadHMP())
	if err != nil {
		t.Fatal(err)
	}
	inj := &refuseAll{}
	cfg := DefaultConfig()
	cfg.Faults = inj
	k, err := New(m, &noopBalancer{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := k.Spawn(busySpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200e6); err != nil {
		t.Fatal(err)
	}
	before := snapshotRunqueues(k)
	migBefore := k.Task(id).Migrations()
	dst := arch.CoreID((int(k.Task(id).Core()) + 1) % k.NumCores())
	if err := k.Migrate(id, dst); !errors.Is(err, errRefused) {
		t.Fatalf("want the injector's refusal, got %v", err)
	}
	if inj.calls != 1 {
		t.Fatalf("injector consulted %d times, want 1", inj.calls)
	}
	assertRunqueuesUnchanged(t, k, before, "injected refusal")
	if got := k.Task(id).Migrations(); got != migBefore {
		t.Fatalf("refused migration was counted: %d -> %d", migBefore, got)
	}
	// Invalid requests must fail on their own validation before the
	// injector is consulted.
	if err := k.Migrate(id, arch.CoreID(99)); err == nil || errors.Is(err, errRefused) {
		t.Fatalf("invalid core should fail validation, got %v", err)
	}
	if inj.calls != 1 {
		t.Fatal("injector consulted for an invalid request")
	}
}

// TestMigrateBackTakesBackPendingMove: a balancer that asks a running
// task to move to the next core and then back to its own, in one epoch,
// leaves it where it was — the second request takes back the first,
// which would otherwise still be applied at the next context switch.
func TestMigrateBackTakesBackPendingMove(t *testing.T) {
	id, home := ThreadID(-1), arch.CoreID(-1)
	bal := balancerFunc(func(k *Kernel, _ Time, _ []hpc.ThreadSample, _ []hpc.CoreEpochSample) {
		if id >= 0 {
			return
		}
		for _, task := range k.ActiveTasks() {
			if task.State() != StateRunning {
				continue
			}
			id, home = task.ID, task.Core()
			if err := k.Migrate(id, (home+1)%arch.CoreID(k.NumCores())); err != nil {
				t.Error(err)
			}
			if err := k.Migrate(id, home); err != nil {
				t.Error(err)
			}
			return
		}
	})
	k := newKernel(t, arch.QuadHMP(), bal)
	specs, err := workload.Mix("Mix1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if _, err := k.Spawn(&specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(3 * k.Config().EpochNs); err != nil {
		t.Fatal(err)
	}
	if id < 0 {
		t.Fatal("no task was running at the first epoch")
	}
	if task := k.Task(id); task.Core() != home || task.Migrations() != 0 {
		t.Fatalf("task %d on core %d after %d migrations, want core %d and none",
			id, task.Core(), task.Migrations(), home)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
