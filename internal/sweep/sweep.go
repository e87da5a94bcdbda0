// Package sweep is the deterministic parallel scenario-sweep engine:
// it expands scenario specifications (platform x balancer x workload x
// seed grids) into independent jobs and executes them on a bounded
// worker pool, with three guarantees the experiment harness depends on:
//
//   - Determinism: results are keyed by their scenario and returned in
//     canonical job order regardless of goroutine scheduling, so a
//     parallel sweep's report is byte-identical to a serial one. Each
//     job derives all randomness from its own seed; the engine itself
//     introduces none.
//   - Caching: jobs carry a content-addressed fingerprint (scenario
//     config + seed + schema version), and an on-disk Cache serves
//     unchanged scenarios without re-running them, so incremental
//     sweeps only execute the delta.
//   - Graceful degradation: a panicking job is recovered into an
//     error-valued result carrying its stack; it never kills the sweep
//     or the other workers.
//
// Wall-clock time never enters the engine directly (the sbvet wallclock
// invariant): per-job timing flows through an injected core.Clock
// factory, frozen by default so library users and tests stay
// bit-reproducible. Binaries inject core.RealClock at the boundary.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"smartbalance/internal/core"
)

// Task is one independent unit of a sweep.
type Task struct {
	// Key canonically identifies the task within its sweep; Execute
	// rejects duplicate or empty keys. It names the task in progress
	// updates and reports.
	Key string
	// Fingerprint is the task's content address for caching: a
	// canonical encoding of everything the result depends on (scenario
	// config, seed, schema version). Empty disables caching for this
	// task.
	Fingerprint []byte
	// Run produces the task's serialized result. It must be a pure
	// function of the task's own inputs: tasks run concurrently, so
	// shared state would race and break result determinism.
	Run func() ([]byte, error)
}

// Status is a task's lifecycle state, as seen by progress hooks.
type Status int

// Task lifecycle states.
const (
	StatusRunning Status = iota
	StatusDone
	StatusCached
	StatusFailed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusCached:
		return "cached"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Progress is one live status update. Updates are delivered serially
// (the engine holds a lock around the callback), but their order across
// tasks follows goroutine scheduling — consumers must not derive
// results from it. Results come from Execute's return value, which is
// canonically ordered.
type Progress struct {
	// Index is the task's position in canonical job order.
	Index int
	// Total is the sweep's job count.
	Total int
	// Key is the task's identity.
	Key string
	// Status is the task's new state.
	Status Status
	// WallNs is the task's wall time on its worker's clock; set on
	// Done/Failed updates.
	WallNs int64
	// Err is the task's error; set on Failed updates.
	Err error
}

// Options configures Execute.
type Options struct {
	// Workers bounds the pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Cache, when non-nil, serves and stores fingerprinted task
	// results.
	Cache *Cache
	// NewClock supplies one Clock per job for its wall timing (clocks
	// need not be safe for concurrent use). Nil freezes timing at zero,
	// keeping library runs a pure function of their inputs; binaries
	// pass core.RealClock here.
	NewClock func() core.Clock
	// OnProgress, when non-nil, receives live status updates.
	OnProgress func(Progress)
}

// Result is one task's outcome. Execute returns results in canonical
// job order: Result[i] always belongs to tasks[i].
type Result struct {
	// Index is the task's position in canonical job order.
	Index int
	// Key is the task's identity.
	Key string
	// Data is the serialized result payload (nil on failure).
	Data []byte
	// Err is the task's failure, if any; a recovered panic surfaces as
	// a *PanicError.
	Err error
	// Cached reports whether Data came from the cache instead of a run.
	Cached bool
	// WallNs is the task's wall time on the job's injected clock
	// (zero for cached results and under the default frozen clock).
	WallNs int64
}

// PanicError is a task panic recovered by the engine.
type PanicError struct {
	// Value is the panic value, stringified.
	Value string
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error renders the panic without the stack (stacks carry addresses and
// so are not stable across runs; report them separately).
func (e *PanicError) Error() string { return "panic: " + e.Value }

// Workers resolves a worker-count setting: values <= 0 select
// GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Execute runs every task on Map's bounded worker pool and returns
// their results in canonical job order. The returned error reports
// malformed input (empty/duplicate keys, nil Run) or a panic in the
// OnProgress hook; per-task failures — including recovered panics —
// live in the results, so one bad scenario never kills the sweep.
// FirstError collapses them when the caller wants fail-fast semantics.
func Execute(tasks []Task, opts Options) ([]Result, error) {
	seen := make(map[string]int, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if t.Key == "" {
			return nil, fmt.Errorf("sweep: task %d has an empty key", i)
		}
		if j, dup := seen[t.Key]; dup {
			return nil, fmt.Errorf("sweep: duplicate task key %q (tasks %d and %d)", t.Key, j, i)
		}
		seen[t.Key] = i
		if t.Run == nil {
			return nil, fmt.Errorf("sweep: task %q has no Run function", t.Key)
		}
	}

	var progressMu sync.Mutex
	emit := func(p Progress) {
		if opts.OnProgress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		opts.OnProgress(p)
	}

	return Map(opts.Workers, len(tasks), func(i int) (Result, error) {
		var clk core.Clock = core.NewFakeClock(0)
		if opts.NewClock != nil {
			clk = opts.NewClock()
		}
		return runOne(i, len(tasks), &tasks[i], opts.Cache, clk, emit), nil
	})
}

// runOne executes (or cache-serves) a single task.
func runOne(i, total int, t *Task, cache *Cache, clk core.Clock, emit func(Progress)) Result {
	emit(Progress{Index: i, Total: total, Key: t.Key, Status: StatusRunning})
	res := Result{Index: i, Key: t.Key}
	if cache != nil && len(t.Fingerprint) > 0 {
		if data, ok := cache.Get(t.Fingerprint); ok {
			res.Data = data
			res.Cached = true
			emit(Progress{Index: i, Total: total, Key: t.Key, Status: StatusCached})
			return res
		}
	}
	t0 := clk.Now()
	data, err := callRecovered(func(int) ([]byte, error) { return t.Run() }, i)
	res.WallNs = clk.Now().Sub(t0).Nanoseconds()
	res.Data, res.Err = data, err
	if err != nil {
		emit(Progress{Index: i, Total: total, Key: t.Key, Status: StatusFailed, WallNs: res.WallNs, Err: err})
		return res
	}
	if cache != nil && len(t.Fingerprint) > 0 {
		// Write failures degrade to an uncached (but correct) sweep;
		// they are surfaced through CacheStats, not as task errors.
		cache.Put(t.Fingerprint, data)
	}
	emit(Progress{Index: i, Total: total, Key: t.Key, Status: StatusDone, WallNs: res.WallNs})
	return res
}

// FirstError returns the error of the lowest-indexed failed result —
// deterministic regardless of which worker failed first — or nil when
// every task succeeded.
func FirstError(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("sweep: task %q: %w", results[i].Key, results[i].Err)
		}
	}
	return nil
}
