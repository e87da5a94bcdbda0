package kernel

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"smartbalance/internal/arch"
	"smartbalance/internal/machine"
	"smartbalance/internal/rng"
	"smartbalance/internal/workload"
)

// finiteSpec is busySpec retiring instr instructions once.
func finiteSpec(name string, instr uint64) *workload.ThreadSpec {
	s := busySpec(name)
	s.Phases[0].Instructions = instr
	s.Repeats = 1
	return s
}

// TestTaskAndKernelSizeClasses pins Task and Kernel to the 208- and
// 448-byte allocation size classes: every spawn allocates a Task, and
// every fleet node a Kernel.
func TestTaskAndKernelSizeClasses(t *testing.T) {
	if n := unsafe.Sizeof(Task{}); n > 208 {
		t.Fatalf("Task is %d bytes, over the 208-byte size class", n)
	}
	if n := unsafe.Sizeof(Kernel{}); n > 448 {
		t.Fatalf("Kernel is %d bytes, over the 448-byte size class", n)
	}
}

// TestReapRefusalsChangeNothing: Reap refuses an unknown id, every
// unfinished task and an id already reaped, each with its predeclared
// error, and leaves runqueues, counters, the task table and the free
// list as they were.
func TestReapRefusalsChangeNothing(t *testing.T) {
	k := newKernel(t, arch.QuadHMP(), &noopBalancer{})
	done, err := k.Spawn(finiteSpec("done", 5e6))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*workload.ThreadSpec{busySpec("a"), busySpec("b"), interactiveSpec("i", 3e6)} {
		if _, err := k.Spawn(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(100e6); err != nil {
		t.Fatal(err)
	}
	if err := k.Reap(done); err != nil {
		t.Fatal(err)
	}
	type reapCase struct {
		id   ThreadID
		want error
	}
	cases := []reapCase{{-1, ErrUnknownTask}, {k.nextID, ErrUnknownTask}, {9999, ErrUnknownTask}, {done, ErrReaped}}
	for _, task := range k.Tasks() {
		cases = append(cases, reapCase{task.ID, ErrNotFinished})
	}
	for _, c := range cases {
		before := snapshotRunqueues(k)
		stats := k.Stats()
		tasks := k.Tasks()
		free := len(k.free)
		if err := k.Reap(c.id); !errors.Is(err, c.want) {
			t.Fatalf("Reap(%d) = %v, want %v", c.id, err, c.want)
		}
		ctx := "Reap(" + strconv.Itoa(int(c.id)) + ")"
		assertRunqueuesUnchanged(t, k, before, ctx)
		if got := k.Stats(); !reflect.DeepEqual(got, stats) {
			t.Fatalf("%s changed the statistics", ctx)
		}
		if got := k.Tasks(); !reflect.DeepEqual(got, tasks) || len(k.free) != free {
			t.Fatalf("%s changed the task table or the free list", ctx)
		}
	}
}

// TestReapedTaskRefusedAsUnknown: once reaped, a task is gone from
// Task, Tasks and Stats, and Migrate, SetAffinity and ClearAffinity
// refuse it as unknown without side effects, without even consulting
// the fault injector.
func TestReapedTaskRefusedAsUnknown(t *testing.T) {
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
	id, err := k.Spawn(finiteSpec("finite", 5e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn(busySpec("bg")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200e6); err != nil {
		t.Fatal(err)
	}
	if err := k.Reap(id); err != nil {
		t.Fatal(err)
	}
	if k.Task(id) != nil {
		t.Fatal("Task returns a reaped task")
	}
	for _, task := range k.Tasks() {
		if task.ID == id {
			t.Fatal("Tasks lists a reaped task")
		}
	}
	stats := k.Stats()
	for _, ts := range stats.Tasks {
		if ts.ID == id {
			t.Fatal("Stats lists a reaped task")
		}
	}
	before := snapshotRunqueues(k)
	for name, call := range map[string]func() error{
		"Migrate":       func() error { return k.Migrate(id, 1) },
		"SetAffinity":   func() error { return k.SetAffinity(id, []arch.CoreID{1}) },
		"ClearAffinity": func() error { return k.ClearAffinity(id) },
	} {
		if err := call(); err == nil {
			t.Fatalf("%s of a reaped task accepted", name)
		}
		assertRunqueuesUnchanged(t, k, before, name+" of a reaped task")
		if got := k.Stats(); !reflect.DeepEqual(got, stats) {
			t.Fatalf("%s of a reaped task changed the statistics", name)
		}
	}
	if inj.calls != 0 {
		t.Fatalf("the fault injector was consulted %d times for a reaped task", inj.calls)
	}
}

// traceHash folds every trace event a kernel emits into one running
// hash, in emission order.
type traceHash struct {
	buf    []byte
	events int
}

func (h *traceHash) observe(e TraceEvent) {
	h.events++
	for _, v := range []int64{e.At, int64(e.Kind), int64(e.Core), int64(e.Thread), e.DurNs, int64(e.Instr)} {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
	}
	if len(h.buf) >= 1<<16 {
		sum := sha256.Sum256(h.buf)
		h.buf = append(h.buf[:0], sum[:]...)
	}
}

func (h *traceHash) sum() [32]byte { return sha256.Sum256(h.buf) }

// TestReapIsTransparent runs twin kernels over one seeded stream of
// short requests, sleepers and long-lived tasks: one reaps every task
// once it finishes and so respawns over recycled tasks, the other never
// reaps. Every other finish is reaped only lag steps later, so reaps
// land both before and after the epoch boundary that compacts the
// task. Both kernels must emit the same trace, and the reaper's Stats
// must be the twin's without the reaped ids.
func TestReapIsTransparent(t *testing.T) {
	classes := workload.RequestClasses()
	var early, late int
	for _, c := range []struct {
		name string
		plat *arch.Platform
		step Time
		lag  int
		seed uint64
	}{
		{"quad-5ms", arch.QuadHMP(), 5e6, 13, 1},
		{"biglittle-17ms", arch.OctaBigLittle(), 17e6, 4, 2},
		{"quad-60ms-on-the-epoch-grid", arch.QuadHMP(), 60e6, 1, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain := newKernel(t, c.plat, spreadBalancer{})
			reaper := newKernel(t, c.plat, spreadBalancer{})
			var hp, hr traceHash
			plain.AddObserver(hp.observe)
			reaper.AddObserver(hr.observe)
			var exits []ThreadID
			reaper.AddObserver(func(e TraceEvent) {
				if e.Kind == TraceFinish {
					exits = append(exits, e.Thread)
				}
			})
			type pendingReap struct {
				id   ThreadID
				step int
			}
			var queue []pendingReap
			reaped := map[ThreadID]bool{}
			finishes, reused := 0, 0
			spawn := func(spec *workload.ThreadSpec) {
				if len(reaper.free) > 0 {
					reused++
				}
				for _, k := range []*Kernel{plain, reaper} {
					s := *spec
					if _, err := k.Spawn(&s); err != nil {
						t.Fatal(err)
					}
				}
			}
			r := rng.New(c.seed)
			for step := 0; step < 240; step++ {
				for n := r.Intn(4); n > 0; n-- {
					spec, err := workload.RequestSpec(classes[r.Intn(len(classes))], "req", r.Uint64())
					if err != nil {
						t.Fatal(err)
					}
					spawn(&spec)
				}
				if r.Intn(8) == 0 {
					s := interactiveSpec("sleeper", 2e6)
					s.Repeats = 3
					spawn(s)
				}
				if step%60 == 0 {
					spawn(busySpec("long"))
				}
				until := plain.Now() + c.step
				for _, k := range []*Kernel{plain, reaper} {
					if err := k.Run(until); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range exits {
					lag := 0
					if finishes%2 == 1 {
						lag = c.lag
					}
					finishes++
					queue = append(queue, pendingReap{id, step + lag})
				}
				exits = exits[:0]
				keep := queue[:0]
				for _, p := range queue {
					if p.step > step {
						keep = append(keep, p)
						continue
					}
					free := len(reaper.free)
					if err := reaper.Reap(p.id); err != nil {
						t.Fatal(err)
					}
					reaped[p.id] = true
					if len(reaper.free) > free {
						late++ // compacted already: straight onto the free list
					} else {
						early++ // onto the free list at its boundary
					}
				}
				queue = keep
				for _, k := range []*Kernel{plain, reaper} {
					if err := k.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if hp.events != hr.events || hp.sum() != hr.sum() {
				t.Fatalf("traces diverge: %d events never reaping, %d reaping", hp.events, hr.events)
			}
			ps, rs := plain.Stats(), reaper.Stats()
			var want []TaskStats
			for _, ts := range ps.Tasks {
				if !reaped[ts.ID] {
					want = append(want, ts)
				}
			}
			if !reflect.DeepEqual(rs.Tasks, want) {
				t.Fatalf("reaper's task statistics (%d tasks) are not the twin's without the %d reaped (%d tasks)",
					len(rs.Tasks), len(reaped), len(ps.Tasks))
			}
			ps.Tasks, rs.Tasks = nil, nil
			if !reflect.DeepEqual(ps, rs) {
				t.Fatalf("run statistics diverge:\n%v\n%v", ps, rs)
			}
			if len(reaped) < 100 || reused < 100 {
				t.Fatalf("%d reaped, %d spawns reused a task: the case exercises too little", len(reaped), reused)
			}
			t.Logf("%d events, %d reaped, %d spawns over recycled tasks", hp.events, len(reaped), reused)
		})
	}
	if early == 0 || late == 0 {
		t.Fatalf("%d reaps before the compacting boundary, %d after: want both", early, late)
	}
	t.Logf("%d reaps before the compacting boundary, %d after", early, late)
}
