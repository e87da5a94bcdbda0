// Package kernel is the reproduction's substitute for the Linux 2.6.x
// scheduling subsystem the paper modifies: a discrete-event simulator of
// per-core CFS (completely fair scheduler) runqueues with nice-weighted
// timeslices and virtual runtimes, task fork/sleep/wakeup/exit, counter
// sampling at schedule() granularity, thread migration via an
// allowed-CPU assignment, and a pluggable load-balancer hook invoked
// once per SmartBalance epoch — the reimplemented rebalance_domains() of
// Section 5.1.
//
// Within a core, scheduling is plain CFS exactly as the paper keeps it
// ("we use the standard Linux CFS to perform scheduling of the threads
// allocated to the same core"); all policy differences between the
// vanilla kernel, ARM GTS, and SmartBalance live behind the Balancer
// interface.
//
// # Fidelity notes
//
// Deliberate simplifications relative to a real Linux kernel, none of
// which change what the balancers can observe or decide:
//
//   - No wakeup preemption: a woken task waits for the running slice to
//     end (at most one timeslice) instead of preempting immediately.
//   - No wake-time idle stealing (select_idle_sibling): a waking task
//     returns to its assigned core; cross-core movement is the
//     balancers' job, at epoch granularity.
//   - One flat scheduling domain: the vanilla balancer balances across
//     all cores directly rather than through a domain hierarchy.
//   - Migration cost is modelled as a fixed cold-cache stall charged to
//     the first slice on the new core.
package kernel

import (
	"errors"
	"fmt"
	"math"

	"smartbalance/internal/arch"
	"smartbalance/internal/hpc"
	"smartbalance/internal/machine"
	"smartbalance/internal/pelt"
	"smartbalance/internal/workload"
)

// Time is simulated time in nanoseconds.
type Time = int64

// ThreadID identifies a task within one kernel instance.
type ThreadID int

// TaskState enumerates the lifecycle states of a task.
type TaskState int

// Task lifecycle states.
const (
	StateRunnable TaskState = iota // on a runqueue, waiting for the CPU
	StateRunning                   // currently executing a slice
	StateSleeping                  // blocked in a sleep/wait period
	StateFinished                  // exited
)

// String returns the state name.
func (s TaskState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateFinished:
		return "finished"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// nice0Load is Linux's NICE_0_LOAD: the weight of a nice-0 task.
const nice0Load = 1024

// WeightForNice returns the CFS load weight for a nice level, following
// the kernel's ~1.25x-per-level rule.
func WeightForNice(nice int) int64 {
	w := 1024 * math.Pow(1.25, float64(-nice))
	if w < 15 {
		w = 15
	}
	return int64(w)
}

// Task is the kernel's task entity ("processes and threads are all
// treated as a task entity and scheduled independently").
type Task struct {
	ID    ThreadID
	Spec  *workload.ThreadSpec
	state *machine.ThreadState

	taskState TaskState
	core      arch.CoreID // runqueue the task belongs (or will return) to
	weight    int64
	vruntime  int64 // weighted virtual runtime, ns-scaled

	// pendingCore, when >= 0, is a migration requested while the task
	// was running; applied at the next context switch — the
	// set_cpus_allowed_ptr() path of Section 5.1.
	pendingCore arch.CoreID

	// migrationDebt is stall time charged before the first slice on a
	// new core (cold caches after migration).
	migrationDebt int64

	// Lifetime statistics.
	spawnedAt    Time
	finishedAt   Time
	totalRunNs   int64
	totalInstr   uint64
	totalEnergyJ float64
	migrations   int

	// epochRunNs is run time within the current epoch; epochRunnableNs
	// additionally counts time spent waiting on a runqueue. The latter
	// is the utilisation (tracked-load) signal GTS-style balancers
	// consume; both reset at each epoch tick until the task finishes.
	epochRunNs      int64
	epochRunnableNs int64
	runnableSince   Time

	// pelt tracks the Linux-style decayed runnable/running averages —
	// the signal GTS-class balancers consume. A finished task leaves
	// the epoch walks at the first boundary after its exit, so neither
	// pelt nor the epoch counters update after that epoch; no balancer
	// reads them, since every one goes through ActiveTasks.
	pelt pelt.Tracker

	// allowed is the CPU-affinity mask (nil = every core allowed). Set
	// via Kernel.SetAffinity; Migrate refuses disallowed destinations.
	allowed []bool
}

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.taskState }

// Core returns the core the task is currently assigned to.
func (t *Task) Core() arch.CoreID { return t.core }

// Weight returns the CFS load weight.
func (t *Task) Weight() int64 { return t.weight }

// TotalInstructions returns the instructions retired so far.
func (t *Task) TotalInstructions() uint64 { return t.totalInstr }

// TotalRunNs returns the accumulated execution time.
func (t *Task) TotalRunNs() int64 { return t.totalRunNs }

// Migrations returns how many times the task has changed cores.
func (t *Task) Migrations() int { return t.migrations }

// EpochRunNs returns the execution time accumulated since the last
// epoch tick.
func (t *Task) EpochRunNs() int64 { return t.epochRunNs }

// TrackedLoad returns the PELT-style decayed *runnable* fraction in
// [0, 1] — Linux's load_avg_ratio, the quantity ARM GTS thresholds act
// on. Fresh as of the last epoch boundary or state change; a finished
// task's value stops updating at its exit, since the epoch walks skip
// it from the next boundary on (balancers read only ActiveTasks).
func (t *Task) TrackedLoad() float64 { return t.pelt.Load() }

// TrackedUtilization returns the PELT-style decayed *running* fraction
// in [0, 1].
func (t *Task) TrackedUtilization() float64 { return t.pelt.Utilization() }

// Utilization returns the runnable fraction of the elapsed epoch in
// [0, 1], given the epoch length.
func (t *Task) Utilization(epochNs int64) float64 {
	if epochNs <= 0 {
		return 0
	}
	u := float64(t.epochRunnableNs) / float64(epochNs)
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}

// Benchmark returns the owning benchmark name.
func (t *Task) Benchmark() string { return t.Spec.Benchmark }

// IsKernelThread reports whether the task was marked as an OS-internal
// thread at fork (Section 5.1's sched_fork() marking).
func (t *Task) IsKernelThread() bool { return t.Spec.KernelThread }

// MachineState exposes the task's execution-model state. Oracle-mode
// experiments use it to read exact per-core behaviour; policy code must
// treat it as read-only.
func (t *Task) MachineState() *machine.ThreadState { return t.state }

// AllowedOn reports whether the task's affinity mask permits core c.
func (t *Task) AllowedOn(c arch.CoreID) bool {
	if t.allowed == nil {
		return true
	}
	return int(c) < len(t.allowed) && t.allowed[int(c)]
}

// HasAffinity reports whether the task carries an explicit affinity
// mask. Allocation-free probe for hot-path callers that would otherwise
// reach for AllowedMask's defensive copy.
func (t *Task) HasAffinity() bool {
	return t.allowed != nil
}

// AllowedMask returns a copy of the affinity mask, or nil when every
// core is allowed.
func (t *Task) AllowedMask() []bool {
	if t.allowed == nil {
		return nil
	}
	return append([]bool(nil), t.allowed...)
}

// SetAffinity restricts the task to the given cores (the
// sched_setaffinity / cpuset analogue). The set must be non-empty and
// valid; if the task currently sits on a now-disallowed core it is
// migrated to the first allowed one.
func (k *Kernel) SetAffinity(id ThreadID, cores []arch.CoreID) error {
	t := k.taskByID(id)
	if t == nil {
		return fmt.Errorf("kernel: affinity for unknown task %d", id)
	}
	if t.taskState == StateFinished {
		return fmt.Errorf("kernel: affinity for finished task %d", id)
	}
	if len(cores) == 0 {
		return errors.New("kernel: empty affinity set")
	}
	mask := make([]bool, len(k.cores))
	first := arch.CoreID(-1)
	for _, c := range cores {
		if int(c) < 0 || int(c) >= len(k.cores) {
			return fmt.Errorf("kernel: affinity core %d out of range", c)
		}
		if !mask[c] && first < 0 {
			first = c
		}
		mask[c] = true
	}
	t.allowed = mask
	// Cancel a pending migration that the new mask forbids.
	if t.pendingCore >= 0 && !t.AllowedOn(t.pendingCore) {
		t.pendingCore = -1
	}
	if !t.AllowedOn(t.core) {
		return k.Migrate(id, first)
	}
	return nil
}

// ClearAffinity removes the task's affinity restriction.
func (k *Kernel) ClearAffinity(id ThreadID) error {
	t := k.taskByID(id)
	if t == nil {
		return fmt.Errorf("kernel: affinity for unknown task %d", id)
	}
	t.allowed = nil
	return nil
}

// FaultInjector perturbs what the sensing and migration paths observe,
// without ever touching ground truth: the kernel's own accounting
// (energy, run time, statistics) is computed before injection, so
// faults corrupt only the balancer's view of the machine, exactly like
// a flaky sensor or a transiently refused set_cpus_allowed_ptr() on
// real hardware. Implementations must be deterministic functions of
// their seed and the (simulated-time-ordered) call sequence; the
// canonical implementation lives in internal/fault.
type FaultInjector interface {
	// FilterEpoch maps the epoch's true sensing snapshot to the
	// (possibly degraded) snapshot the balancer receives. epoch counts
	// balancer invocations from 1; now is simulated time. The injector
	// owns the returned map/slice; it must not mutate the inputs it
	// does not return.
	// The snapshot slices follow the hpc.Bank.Snapshot contract: sorted
	// ascending by thread id, valid until the next epoch's snapshot.
	FilterEpoch(epoch int, now Time, threads []ThreadSample, cores []CoreEpochSample) ([]ThreadSample, []CoreEpochSample)
	// MigrateFault returns a non-nil error when a migration request
	// that passed all validity checks should be rejected anyway
	// (transient kernel refusal). A nil return lets the migration
	// proceed.
	MigrateFault(now Time, id ThreadID, dst arch.CoreID) error
}

// ThreadEpochSample and CoreEpochSample are re-exported so fault
// injectors can be written against kernel types alone.
type (
	// ThreadEpochSample is hpc.ThreadEpochSample.
	ThreadEpochSample = hpc.ThreadEpochSample
	// ThreadSample is hpc.ThreadSample.
	ThreadSample = hpc.ThreadSample
	// CoreEpochSample is hpc.CoreEpochSample.
	CoreEpochSample = hpc.CoreEpochSample
)

// Config parameterises a kernel instance.
type Config struct {
	// SchedLatencyNs is the CFS target latency: every runnable task runs
	// once within this window when few tasks are present.
	SchedLatencyNs int64
	// MinGranularityNs is the smallest timeslice CFS will hand out.
	MinGranularityNs int64
	// EpochNs is the SmartBalance epoch T_Epoch covering L CFS periods
	// (60 ms in the paper's evaluation).
	EpochNs int64
	// MigrationPenaltyNs is stall time charged to a task's first slice
	// on a new core (cold-cache effect).
	MigrationPenaltyNs int64
	// Noise configures the power sensors.
	Noise hpc.Noise
	// Seed drives the power-sensor noise stream (Noise); placement is
	// deterministic and draws nothing from it.
	Seed uint64
	// Faults, when non-nil, injects sensing and migration faults (see
	// FaultInjector). Nil runs with perfect sensing.
	Faults FaultInjector
}

// DefaultConfig returns the configuration used across the paper's
// experiments.
func DefaultConfig() Config {
	return Config{
		SchedLatencyNs:     12e6,  // 12 ms CFS latency
		MinGranularityNs:   1.5e6, // 1.5 ms minimum slice
		EpochNs:            60e6,  // 60 ms SmartBalance epoch (Section 6.3)
		MigrationPenaltyNs: 50e3,  // 50 us cold-cache penalty
		Seed:               1,
	}
}

// Validate checks configuration sanity.
func (c *Config) Validate() error {
	switch {
	case c.SchedLatencyNs <= 0:
		return errors.New("kernel: non-positive sched latency")
	case c.MinGranularityNs <= 0 || c.MinGranularityNs > c.SchedLatencyNs:
		return errors.New("kernel: min granularity outside (0, sched latency]")
	case c.EpochNs < c.SchedLatencyNs:
		return errors.New("kernel: epoch shorter than one CFS period")
	case c.MigrationPenaltyNs < 0:
		return errors.New("kernel: negative migration penalty")
	}
	return nil
}

// Balancer is the load-balancing policy hook: the reimplementation
// point of Linux's rebalance_domains(). It is called once per epoch
// with the epoch's sensed per-thread and per-core samples and may call
// Kernel.Migrate to move tasks.
type Balancer interface {
	// Name identifies the policy in results tables.
	Name() string
	// Rebalance runs at an epoch boundary. threads holds the counters
	// sampled during the elapsed epoch, sorted ascending by thread id
	// (hpc.FindThread performs the per-task lookup); cores holds the
	// per-core aggregates. Both views are valid until the next epoch.
	Rebalance(k *Kernel, now Time, threads []hpc.ThreadSample, cores []hpc.CoreEpochSample)
}

// coreRun is the per-core scheduling state.
type coreRun struct {
	id   arch.CoreID
	runq []rqEntry // runnable tasks, sorted by (vruntime, seq); current excluded
	// runqHead indexes the first live entry: popping the minimum
	// advances the cursor instead of memmoving the whole queue, and the
	// drained prefix is reclaimed by amortized compaction (see pickNext).
	runqHead int
	// runqWeight is the summed CFS weight of runq, maintained
	// incrementally so CoreLoad and timeslice are O(1).
	runqWeight int64
	current    *Task
	// pending is the precomputed outcome of the in-flight slice,
	// consumed at its end event.
	pending    machine.SliceResult
	sleeping   bool
	sleepStart Time

	// Cumulative accounting.
	busyNs   int64
	sleepNs  int64
	instr    uint64
	energyJ  float64
	switches int64
}

// Kernel is one simulated OS instance bound to a machine and a
// balancing policy.
type Kernel struct {
	mach     *machine.Machine
	plat     *arch.Platform
	balancer Balancer
	cfg      Config

	now Time
	// rqCounter issues Task.rqSeq admission tickets.
	rqCounter uint64
	// events holds every core's pending slice end and the pending
	// wakeups under one (at, seq) order (DESIGN.md §12).
	events eventQueue
	// place is Spawn's placement index: a winner tree over the cores
	// keyed by (RunqueueLen, core id), so its root is the core fork
	// placement picks. It is valid only while placeFresh: Run and
	// Migrate change runqueue lengths without updating it, and the next
	// Spawn rebuilds it.
	place      sliceTimers
	placeFresh bool

	cores []coreRun
	// tasks is indexed by ThreadID: ids are assigned densely from 0 and
	// never reused, so the slice doubles as the id→task map and is in
	// spawn order.
	tasks []*Task
	// live holds the tasks not yet seen finished at an epoch boundary,
	// in spawn order: each boundary compacts out the tasks that exited
	// since the last one, so the epoch walks cost the live set, not
	// every task ever spawned.
	live []*Task
	// activeScratch backs ActiveTasks between epochs.
	activeScratch []*Task
	// exited buffers tasks that finished since the last epoch boundary;
	// their bank slots are released after the next snapshot.
	exited []ThreadID
	nextID ThreadID

	bank *hpc.Bank

	epochs     int
	migrations int

	// horizon caps slice lengths so no event crosses the end of Run;
	// nextEpoch is the time of the next balancer tick.
	horizon   Time
	nextEpoch Time

	// observers receive scheduling trace events; slots are assigned by
	// AddObserver and never reused.
	observers []Observer
}

// New constructs a kernel over machine m with the given balancing
// policy and configuration.
func New(m *machine.Machine, b Balancer, cfg Config) (*Kernel, error) {
	if m == nil {
		return nil, errors.New("kernel: nil machine")
	}
	if b == nil {
		return nil, errors.New("kernel: nil balancer")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plat := m.Platform()
	bank, err := hpc.NewBank(plat.NumCores(), cfg.Noise, cfg.Seed^0xB4153)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		mach:     m,
		plat:     plat,
		balancer: b,
		cfg:      cfg,
		events:   newEventQueue(plat.NumCores()),
		place:    newSliceTimers(plat.NumCores()),
		cores:    make([]coreRun, plat.NumCores()),
		bank:     bank,
		// The clock starts at 0, so the first balancer tick is one
		// epoch in.
		nextEpoch: cfg.EpochNs,
	}
	for i := range k.cores {
		k.cores[i] = coreRun{id: arch.CoreID(i), sleeping: true}
	}
	return k, nil
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// NextEpoch returns the time of the next balancer tick: a Run whose
// horizon reaches it runs the balancer.
func (k *Kernel) NextEpoch() Time { return k.nextEpoch }

// Platform returns the underlying platform.
func (k *Kernel) Platform() *arch.Platform { return k.plat }

// Machine returns the underlying machine model.
func (k *Kernel) Machine() *machine.Machine { return k.mach }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Balancer returns the installed balancing policy (useful for
// attaching observability to policies that support it).
func (k *Kernel) Balancer() Balancer { return k.balancer }

// Task returns the task with the given id, or nil.
func (k *Kernel) Task(id ThreadID) *Task { return k.taskByID(id) }

// taskByID resolves a thread id against the dense task table; nil for
// ids never assigned.
func (k *Kernel) taskByID(id ThreadID) *Task {
	if id < 0 || int(id) >= len(k.tasks) {
		return nil
	}
	return k.tasks[id]
}

// Tasks returns all tasks in spawn order.
func (k *Kernel) Tasks() []*Task {
	return append([]*Task(nil), k.tasks...)
}

// ActiveTasks returns all non-finished tasks in spawn order — "the set
// of threads to be optimized contains all threads active at the
// beginning of each SmartBalance epoch". The returned slice is
// kernel-owned scratch, valid until the next call.
func (k *Kernel) ActiveTasks() []*Task {
	out := k.activeScratch[:0]
	for _, t := range k.live {
		if t.taskState != StateFinished {
			out = append(out, t) //sbvet:allow hotpath(kernel-owned scratch; capacity reaches the live task count and is reused every epoch)
		}
	}
	k.activeScratch = out
	return out
}

// NumCores returns the platform core count.
func (k *Kernel) NumCores() int { return len(k.cores) }

// RunqueueLen returns the number of runnable tasks on a core, counting
// the one currently executing.
func (k *Kernel) RunqueueLen(c arch.CoreID) int {
	cr := &k.cores[c]
	n := len(cr.runq) - cr.runqHead
	if cr.current != nil {
		n++
	}
	return n
}

// CoreLoad returns the summed CFS weight of the runnable tasks on a
// core (the vanilla balancer's load metric).
func (k *Kernel) CoreLoad(c arch.CoreID) int64 {
	cr := &k.cores[c]
	w := cr.runqWeight
	if cr.current != nil {
		w += cr.current.weight
	}
	return w
}

// Spawn creates a task from spec at the current simulated time
// (sched_fork analogue). Initial placement goes to the core with the
// fewest runnable tasks, ties broken by id — mirroring fork balancing.
// That core is the root of the placement index, so a Spawn costs
// O(log cores) after the first of a burst, which rebuilds the index in
// O(cores) if Run or Migrate moved tasks since the last Spawn.
func (k *Kernel) Spawn(spec *workload.ThreadSpec) (ThreadID, error) {
	st, err := k.mach.NewThreadState(spec)
	if err != nil {
		return 0, err
	}
	id := k.nextID
	k.nextID++
	best := k.placeCore()
	t := &Task{
		ID:            id,
		Spec:          spec,
		state:         st,
		taskState:     StateRunnable,
		core:          best,
		weight:        WeightForNice(spec.Nice),
		pendingCore:   -1,
		spawnedAt:     k.now,
		runnableSince: k.now,
	}
	k.tasks = append(k.tasks, t)
	k.live = append(k.live, t)
	t.pelt.Transition(k.now, true, false)
	k.emit(TraceEvent{At: k.now, Kind: TraceSpawn, Core: best, Thread: id})
	k.enqueue(t, best)
	k.kick(best)
	k.place.set(best, Time(k.RunqueueLen(best)), uint64(best))
	return id, nil
}

// placeCore returns the core fork placement picks, the root of the
// placement index, after rebuilding the index from every core's
// RunqueueLen if it is stale.
func (k *Kernel) placeCore() arch.CoreID {
	p := &k.place
	if !k.placeFresh {
		for i := range k.cores {
			c := arch.CoreID(i)
			p.nodes[p.leaves+i] = timer{at: Time(k.RunqueueLen(c)), seq: uint64(c), core: c}
		}
		p.rebuild()
		k.placeFresh = true
	}
	return p.nodes[1].core
}

// Migrate moves a task to the destination core. Runnable tasks move
// immediately; the currently running task is marked and moved at its
// next context switch; sleeping tasks wake up on the new core. This is
// the simulator's set_cpus_allowed_ptr().
func (k *Kernel) Migrate(id ThreadID, dst arch.CoreID) error {
	t := k.taskByID(id)
	if t == nil {
		return fmt.Errorf("kernel: migrate unknown task %d", id) //sbvet:allow hotpath(refused-migration diagnostic; formats only on the rejected-request path)
	}
	if int(dst) < 0 || int(dst) >= len(k.cores) {
		return fmt.Errorf("kernel: migrate to invalid core %d", dst) //sbvet:allow hotpath(refused-migration diagnostic; formats only on the rejected-request path)
	}
	if !t.AllowedOn(dst) {
		return fmt.Errorf("kernel: core %d not in task %d's affinity mask", dst, id) //sbvet:allow hotpath(refused-migration diagnostic; formats only on the rejected-request path)
	}
	if t.taskState != StateFinished && k.cfg.Faults != nil {
		// Injected transient refusal: the request was valid, but the
		// (simulated) kernel rejected it. No state has changed yet, so a
		// refused migration leaves runqueue accounting untouched.
		if err := k.cfg.Faults.MigrateFault(k.now, id, dst); err != nil {
			return err
		}
	}
	switch t.taskState {
	case StateFinished:
		return fmt.Errorf("kernel: migrate finished task %d", id) //sbvet:allow hotpath(refused-migration diagnostic; formats only on the rejected-request path)
	case StateRunning:
		if t.core != dst {
			t.pendingCore = dst
		} else {
			// Back to its own core: take back a move still pending.
			t.pendingCore = -1
		}
		return nil
	case StateSleeping:
		if t.core != dst {
			t.core = dst
			t.migrations++
			k.migrations++
			t.migrationDebt = k.cfg.MigrationPenaltyNs
			k.emit(TraceEvent{At: k.now, Kind: TraceMigrate, Core: dst, Thread: id})
		}
		return nil
	case StateRunnable:
		if t.core == dst {
			return nil
		}
		k.placeFresh = false
		k.dequeue(t)
		t.migrations++
		k.migrations++
		t.migrationDebt = k.cfg.MigrationPenaltyNs
		k.emit(TraceEvent{At: k.now, Kind: TraceMigrate, Core: dst, Thread: id})
		k.enqueue(t, dst)
		k.kick(dst)
		return nil
	}
	return fmt.Errorf("kernel: task %d in unexpected state %v", id, t.taskState) //sbvet:allow hotpath(refused-migration diagnostic; formats only on the rejected-request path)
}
