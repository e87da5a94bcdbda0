package kernel

import (
	"fmt"
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/machine"
	"smartbalance/internal/rng"
	"smartbalance/internal/workload"
)

// The event-queue contract (DESIGN.md §12): the kernel's queue — one
// winner-tree slot per core for slice ends plus a heap of wakeups —
// must drain exactly the (at, seq) order of a plain binary heap holding
// every event. The streams below keep the kernel's one invariant the
// queue relies on, at most one pending slice end per core, and are
// otherwise adversarial: equal-`at` ties across cores and between slice
// ends and wakeups, pops interleaved with pushes, limits that stop
// short of the next event, and core counts that do and do not fill the
// tree's power-of-two leaves.

// queueOracle drives an eventQueue and a reference heap with the same
// pushes and pops and fails on the first divergence.
type queueOracle struct {
	t      *testing.T
	name   string
	q      eventQueue
	ref    eventHeap
	armedC []bool // cores with a pending slice end
	now    Time   // time of the latest pop
}

func newQueueOracle(t *testing.T, name string, cores int) *queueOracle {
	return &queueOracle{t: t, name: name, q: newEventQueue(cores), armedC: make([]bool, cores)}
}

func (o *queueOracle) arm(c int, at Time) {
	if o.armedC[c] {
		o.t.Fatalf("%s: stream armed core %d twice", o.name, c)
	}
	o.ref.push(event{at: at, seq: o.q.seq, kind: evSliceEnd, core: arch.CoreID(c)})
	o.q.armSlice(arch.CoreID(c), at)
	o.armedC[c] = true
}

func (o *queueOracle) wake(at Time, id ThreadID) {
	o.ref.push(event{at: at, seq: o.q.seq, kind: evWakeup, task: id})
	o.q.pushWakeup(at, id)
}

// pop pops both queues up to limit and returns the common result.
func (o *queueOracle) pop(limit Time) (event, bool) {
	o.t.Helper()
	var want event
	wantOK := len(o.ref) > 0 && o.ref[0].at <= limit
	if wantOK {
		want, _ = o.ref.pop()
	}
	got, ok := o.q.popUntil(limit)
	if ok != wantOK || got != want {
		o.t.Fatalf("%s: popUntil(%d) = %+v, %v; heap says %+v, %v", o.name, limit, got, ok, want, wantOK)
	}
	if ok {
		o.now = got.at
		if got.kind == evSliceEnd {
			o.armedC[got.core] = false
		}
	}
	return got, ok
}

func (o *queueOracle) checkArmed(c int) {
	o.t.Helper()
	if got := o.q.armed(arch.CoreID(c)); got != o.armedC[c] {
		o.t.Fatalf("%s: armed(%d) = %v, want %v", o.name, c, got, o.armedC[c])
	}
}

// queueShape draws the delay of a new slice end or wakeup after the
// latest pop; a negative delay schedules the event behind it.
type queueShape struct {
	name       string
	slice      func(r *rng.Rand) Time
	sleep      func(r *rng.Rand) Time
	rearm      float64 // probability a popped core re-arms at once
	extraPush  float64 // probability of an extra arm/wakeup between pops
	shortLimit float64 // probability a pop's limit stops before the next event
}

func queueShapes() []queueShape {
	grid := []Time{1.5e6, 3e6, 4e6, 12e6}
	return []queueShape{
		{
			name:  "uniform",
			slice: func(r *rng.Rand) Time { return 1 + Time(r.Intn(1e7)) },
			sleep: func(r *rng.Rand) Time { return 1 + Time(r.Intn(1e7)) },
			rearm: 0.8, extraPush: 0.3, shortLimit: 0.2,
		},
		{
			// Few distinct delays: most pops tie on `at` with other cores'
			// slice ends and with wakeups, so seq alone decides.
			name:  "same-timestamp-burst",
			slice: func(r *rng.Rand) Time { return Time(1+r.Intn(3)) * 1e6 },
			sleep: func(r *rng.Rand) Time { return Time(1+r.Intn(3)) * 1e6 },
			rearm: 0.9, extraPush: 0.5, shortLimit: 0.1,
		},
		{
			// Kernel-like: full slices on the CFS grid, sleeps equal to
			// slices, occasional short slices ended by a phase change.
			name: "clustered",
			slice: func(r *rng.Rand) Time {
				if r.Float64() < 0.2 {
					return 1 + Time(r.Intn(1e6))
				}
				return grid[r.Intn(len(grid))]
			},
			sleep: func(r *rng.Rand) Time { return grid[r.Intn(3)] },
			rearm: 0.95, extraPush: 0.2, shortLimit: 0.3,
		},
		{
			// Events scheduled behind the latest pop: the queue orders by
			// (at, seq) alone and never assumes time moves forward.
			name: "monotone-with-rewinds",
			slice: func(r *rng.Rand) Time {
				if r.Float64() < 0.2 {
					return -Time(r.Intn(1e6))
				}
				return Time(r.Intn(2e6))
			},
			sleep: func(r *rng.Rand) Time { return Time(r.Intn(2e6)) - 5e5 },
			rearm: 0.7, extraPush: 0.4, shortLimit: 0.2,
		},
		{
			// Every popped core re-arms and every wakeup re-queues, so the
			// population stays constant while every slot churns.
			name:  "steady-churn",
			slice: func(r *rng.Rand) Time { return 1 + Time(r.Intn(1e7)) },
			sleep: func(r *rng.Rand) Time { return 1 + Time(r.Intn(1e7)) },
			rearm: 1, extraPush: 0, shortLimit: 0,
		},
	}
}

// runQueueStream arms a random half of the cores plus a few wakeups,
// then pops steps events, reacting to each the way the kernel does: a
// popped slice end re-arms its core or leaves it idle and may put a
// task to sleep; a popped wakeup may arm an idle core.
func runQueueStream(t *testing.T, sh queueShape, cores int, seed uint64, steps int) {
	r := rng.New(seed)
	o := newQueueOracle(t, fmt.Sprintf("%s/cores=%d/seed%d", sh.name, cores, seed), cores)
	at := func(d Time) Time {
		if v := o.now + d; v >= 0 {
			return v
		}
		return 0
	}
	for c := 0; c < cores; c++ {
		if r.Float64() < 0.5 || cores == 1 {
			o.arm(c, at(sh.slice(r)))
		}
	}
	for i := 0; i < 1+cores/8; i++ {
		o.wake(at(sh.sleep(r)), ThreadID(r.Intn(1<<16)))
	}
	armIdle := func() {
		if c := r.Intn(cores); !o.armedC[c] {
			o.arm(c, at(sh.slice(r)))
		}
	}
	for step := 0; step < steps; step++ {
		if r.Float64() < sh.extraPush {
			if r.Float64() < 0.5 {
				armIdle()
			} else {
				o.wake(at(sh.sleep(r)), ThreadID(r.Intn(1<<16)))
			}
		}
		limit := Time(math.MaxInt64)
		if r.Float64() < sh.shortLimit && len(o.ref) > 0 {
			limit = o.ref[0].at - 1 - Time(r.Intn(3))
		}
		e, ok := o.pop(limit)
		if !ok {
			continue
		}
		switch e.kind {
		case evSliceEnd:
			c := int(e.core)
			if r.Float64() < sh.rearm {
				o.arm(c, at(sh.slice(r)))
			}
			if sh.rearm == 1 || r.Float64() < 0.3 {
				o.wake(at(sh.sleep(r)), ThreadID(r.Intn(1<<16)))
			}
			o.checkArmed(c)
		case evWakeup:
			if sh.rearm == 1 {
				o.wake(at(sh.sleep(r)), e.task)
			} else if r.Float64() < 0.5 {
				armIdle()
			}
		}
		o.checkArmed(r.Intn(cores))
	}
	for {
		if _, ok := o.pop(math.MaxInt64); !ok {
			break
		}
	}
	for c := 0; c < cores; c++ {
		o.checkArmed(c)
	}
	if len(o.ref) != 0 {
		t.Fatalf("%s: reference heap holds %d events after the queue drained", o.name, len(o.ref))
	}
}

// TestEventQueueEquivalenceRandomStreams drains seeded streams of every
// shape through the queue and the reference heap on 1, 3, 4, 256 and
// 1024 cores.
func TestEventQueueEquivalenceRandomStreams(t *testing.T) {
	for _, sh := range queueShapes() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			for _, cores := range []int{1, 3, 4, 256, 1024} {
				for _, seed := range []uint64{1, 2, 77} {
					runQueueStream(t, sh, cores, seed, 3000+4*cores)
				}
			}
		})
	}
}

// TestEventQueueSliceEndWakeupTie pins the cross-structure tie-break:
// a wakeup and a slice end due at the same instant drain in push order,
// whichever structure holds the earlier push.
func TestEventQueueSliceEndWakeupTie(t *testing.T) {
	o := newQueueOracle(t, "tie", 4)
	o.wake(10, 1)
	o.arm(2, 10)
	o.arm(0, 10)
	o.wake(10, 2)
	o.arm(3, 9)
	var order []string
	for {
		e, ok := o.pop(math.MaxInt64)
		if !ok {
			break
		}
		if e.kind == evSliceEnd {
			order = append(order, fmt.Sprintf("slice%d", e.core))
		} else {
			order = append(order, fmt.Sprintf("wake%d", e.task))
		}
	}
	if got, want := fmt.Sprint(order), "[slice3 wake1 slice2 slice0 wake2]"; got != want {
		t.Fatalf("drain order %s, want %s", got, want)
	}
}

// TestTimerBeforeMatchesEventLess checks the branch-free comparison
// against eventLess on edge keys, including negative and extreme times
// and equal times that only seq separates.
func TestTimerBeforeMatchesEventLess(t *testing.T) {
	ats := []Time{math.MinInt64, -5, -1, 0, 1, 7, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 2, 1 << 63, noSeq - 1, noSeq}
	for _, aAt := range ats {
		for _, aSeq := range seqs {
			for _, bAt := range ats {
				for _, bSeq := range seqs {
					want := eventLess(&event{at: aAt, seq: aSeq}, &event{at: bAt, seq: bSeq})
					m := before(aAt, aSeq, bAt, bSeq)
					if (m == math.MaxUint64) != want || (m != 0 && m != math.MaxUint64) {
						t.Fatalf("before((%d,%d), (%d,%d)) = %#x, want less=%v", aAt, aSeq, bAt, bSeq, m, want)
					}
				}
			}
		}
	}
}

// TestEventQueueRetainedCapacityBounded pins the queue's memory to the
// live population: after 50 epochs of 2560 Mix1 threads on 256 cores
// the queue retains the fixed winner tree plus at most twice the
// largest number of wakeups ever pending at once — no capacity
// accumulates from event times, clustering or run length.
func TestEventQueueRetainedCapacityBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	plat, err := arch.ScalingHMP(256)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(plat)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(m, &noopBalancer{}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := workload.Mix("Mix1", 1280, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if _, err := k.Spawn(&specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Sleep events are emitted just before their wakeup is pushed.
	peak := 0
	k.AddObserver(func(e TraceEvent) {
		if e.Kind == TraceSleep {
			peak = max(peak, len(k.events.wakeups)+1)
		}
	})
	if err := k.Run(50 * k.cfg.EpochNs); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tree := len(k.events.timers.nodes)
	if tree != 2*256 {
		t.Fatalf("winner tree holds %d nodes, want %d", tree, 2*256)
	}
	slots := tree + cap(k.events.wakeups)
	t.Logf("retained %d event slots: tree %d, wakeup heap cap %d, peak pending wakeups %d", slots, tree, cap(k.events.wakeups), peak)
	if bound := tree + 2*peak + 8; slots > bound {
		t.Fatalf("queue retains %d event slots, want <= %d (tree %d + 2 x peak pending wakeups %d + 8)", slots, bound, tree, peak)
	}
}
