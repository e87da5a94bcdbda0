package kernel

import (
	"fmt"
	"sort"
	"strings"

	"smartbalance/internal/arch"
)

// CoreStats is one core's cumulative accounting over the whole run.
type CoreStats struct {
	Core     arch.CoreID
	TypeName string
	BusyNs   int64
	SleepNs  int64
	Instr    uint64
	EnergyJ  float64
	Switches int64
}

// IPS returns the core's average throughput over the observed window.
func (c *CoreStats) IPS(spanNs int64) float64 {
	if spanNs <= 0 {
		return 0
	}
	return float64(c.Instr) / (float64(spanNs) * 1e-9)
}

// PowerW returns the core's average power over the observed window.
func (c *CoreStats) PowerW(spanNs int64) float64 {
	if spanNs <= 0 {
		return 0
	}
	return c.EnergyJ / (float64(spanNs) * 1e-9)
}

// TaskStats is one task's cumulative accounting.
type TaskStats struct {
	ID         ThreadID
	Name       string
	Benchmark  string
	State      TaskState
	RunNs      int64
	Instr      uint64
	EnergyJ    float64
	Migrations int
	SpawnedAt  Time
	FinishedAt Time
}

// RunStats is the complete observable outcome of a simulation run: the
// numbers every figure of the evaluation is computed from.
type RunStats struct {
	Balancer   string
	SpanNs     int64
	Epochs     int
	Migrations int
	Cores      []CoreStats
	Tasks      []TaskStats
}

// TotalInstructions sums retired instructions across cores.
func (s *RunStats) TotalInstructions() uint64 {
	var total uint64
	for i := range s.Cores {
		total += s.Cores[i].Instr
	}
	return total
}

// TotalEnergyJ sums energy across cores (busy, idle, and gated).
func (s *RunStats) TotalEnergyJ() float64 {
	var total float64
	for i := range s.Cores {
		total += s.Cores[i].EnergyJ
	}
	return total
}

// IPS returns aggregate throughput in instructions per second.
func (s *RunStats) IPS() float64 {
	if s.SpanNs <= 0 {
		return 0
	}
	return float64(s.TotalInstructions()) / (float64(s.SpanNs) * 1e-9)
}

// PowerW returns aggregate average power.
func (s *RunStats) PowerW() float64 {
	if s.SpanNs <= 0 {
		return 0
	}
	return s.TotalEnergyJ() / (float64(s.SpanNs) * 1e-9)
}

// EnergyEfficiency returns the paper's headline metric: throughput per
// watt (equivalently, instructions per joule).
func (s *RunStats) EnergyEfficiency() float64 {
	p := s.PowerW()
	if p <= 0 {
		return 0
	}
	return s.IPS() / p
}

// TotalEnergyJ returns the cumulative energy across all cores without
// building a full Stats snapshot — O(cores) and allocation-free, so
// callers that poll energy at a fine cadence (the fleet tier reads it
// every dispatch tick) never pay the per-task snapshot cost.
func (k *Kernel) TotalEnergyJ() float64 {
	var total float64
	for i := range k.cores {
		total += k.cores[i].energyJ
	}
	return total
}

// BenchmarkStats aggregates the tasks of one benchmark.
type BenchmarkStats struct {
	Benchmark string
	Tasks     int
	RunNs     int64
	Instr     uint64
	EnergyJ   float64
}

// IPS returns the benchmark's aggregate throughput over the span.
func (b *BenchmarkStats) IPS(spanNs int64) float64 {
	if spanNs <= 0 {
		return 0
	}
	return float64(b.Instr) / (float64(spanNs) * 1e-9)
}

// ByBenchmark groups the per-task statistics by owning benchmark,
// sorted by name — the per-application view of a mixed run.
func (s *RunStats) ByBenchmark() []BenchmarkStats {
	agg := map[string]*BenchmarkStats{}
	var names []string
	for i := range s.Tasks {
		t := &s.Tasks[i]
		b := agg[t.Benchmark]
		if b == nil {
			b = &BenchmarkStats{Benchmark: t.Benchmark}
			agg[t.Benchmark] = b
			names = append(names, t.Benchmark)
		}
		b.Tasks++
		b.RunNs += t.RunNs
		b.Instr += t.Instr
		b.EnergyJ += t.EnergyJ
	}
	sort.Strings(names)
	out := make([]BenchmarkStats, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	return out
}

// String renders a compact human-readable summary.
func (s *RunStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "balancer=%s span=%.1fms instr=%.3g power=%.3gW IPS/W=%.4g migrations=%d epochs=%d\n",
		s.Balancer, float64(s.SpanNs)/1e6, float64(s.TotalInstructions()), s.PowerW(), s.EnergyEfficiency(),
		s.Migrations, s.Epochs)
	for i := range s.Cores {
		c := &s.Cores[i]
		fmt.Fprintf(&sb, "  core %d (%s): busy=%.1fms sleep=%.1fms instr=%.3g energy=%.4gJ\n",
			c.Core, c.TypeName, float64(c.BusyNs)/1e6, float64(c.SleepNs)/1e6, float64(c.Instr), c.EnergyJ)
	}
	return sb.String()
}

// Stats snapshots the cumulative run statistics at the current time.
func (k *Kernel) Stats() *RunStats {
	s := &RunStats{
		Balancer:   k.balancer.Name(),
		SpanNs:     k.now,
		Epochs:     k.epochs,
		Migrations: k.migrations,
	}
	for i := range k.cores {
		cr := &k.cores[i]
		s.Cores = append(s.Cores, CoreStats{
			Core:     cr.id,
			TypeName: k.plat.Type(cr.id).Name,
			BusyNs:   cr.busyNs,
			SleepNs:  cr.sleepNs,
			Instr:    cr.instr,
			EnergyJ:  cr.energyJ,
			Switches: cr.switches,
		})
	}
	for _, t := range k.tasks {
		if t == nil {
			continue // reaped
		}
		s.Tasks = append(s.Tasks, TaskStats{
			ID:         t.ID,
			Name:       t.Spec.Name,
			Benchmark:  t.Spec.Benchmark,
			State:      t.taskState,
			RunNs:      t.totalRunNs,
			Instr:      t.totalInstr,
			EnergyJ:    t.totalEnergyJ,
			Migrations: t.migrations,
			SpawnedAt:  t.spawnedAt,
			FinishedAt: t.finishedAt,
		})
	}
	return s
}

// CheckInvariants verifies internal consistency: every non-finished
// task is in exactly one scheduler location, runqueue membership
// matches task state, each core's runqWeight is the summed weight of
// its queued tasks, a core has a pending slice end exactly when it has
// a current task, a fresh placement index holds every core's
// RunqueueLen, accounting is non-negative, the live list holds each
// task once and only as its table entry (or, once reaped, finished),
// and every task on the free list is finished, reaped, listed once, not
// live and without its spec. Tests call this after stress runs.
func (k *Kernel) CheckInvariants() error {
	seen := make(map[ThreadID]string)
	for i := range k.cores {
		cr := &k.cores[i]
		var weight int64
		if cr.current != nil {
			t := cr.current
			if t.taskState != StateRunning {
				return fmt.Errorf("kernel: current task %d on core %d in state %v", t.ID, i, t.taskState)
			}
			if t.core != cr.id {
				return fmt.Errorf("kernel: current task %d core field %d != %d", t.ID, t.core, cr.id)
			}
			if loc, dup := seen[t.ID]; dup {
				return fmt.Errorf("kernel: task %d in two places (%s and core %d current)", t.ID, loc, i)
			}
			seen[t.ID] = fmt.Sprintf("core %d current", i)
		}
		for _, e := range cr.runq[cr.runqHead:] {
			t := k.tasks[e.id]
			if t.taskState != StateRunnable {
				return fmt.Errorf("kernel: queued task %d in state %v", t.ID, t.taskState)
			}
			if t.core != cr.id {
				return fmt.Errorf("kernel: queued task %d core field %d != queue %d", t.ID, t.core, cr.id)
			}
			if loc, dup := seen[t.ID]; dup {
				return fmt.Errorf("kernel: task %d in two places (%s and core %d queue)", t.ID, loc, i)
			}
			seen[t.ID] = fmt.Sprintf("core %d queue", i)
			weight += t.weight
		}
		if weight != cr.runqWeight {
			return fmt.Errorf("kernel: core %d runqWeight %d, queued tasks weigh %d", i, cr.runqWeight, weight)
		}
		if cr.busyNs < 0 || cr.sleepNs < 0 || cr.energyJ < 0 {
			return fmt.Errorf("kernel: negative accounting on core %d", i)
		}
		if cr.sleeping && cr.current != nil {
			return fmt.Errorf("kernel: core %d sleeping while running", i)
		}
		if armed := k.events.armed(cr.id); armed != (cr.current != nil) {
			return fmt.Errorf("kernel: core %d pending slice end = %v, current task = %v", i, armed, cr.current != nil)
		}
		if leaf := k.place.nodes[k.place.leaves+i]; k.placeFresh &&
			(leaf.at != Time(k.RunqueueLen(cr.id)) || leaf.seq != uint64(i) || leaf.core != cr.id) {
			return fmt.Errorf("kernel: placement leaf of core %d holds (%d, %d, %d), runqueue length %d",
				i, leaf.at, leaf.seq, leaf.core, k.RunqueueLen(cr.id))
		}
	}
	for i, t := range k.tasks {
		if t == nil {
			continue // reaped
		}
		id := ThreadID(i)
		switch t.taskState {
		case StateRunnable, StateRunning:
			if _, ok := seen[id]; !ok {
				return fmt.Errorf("kernel: %v task %d not on any queue", t.taskState, id)
			}
		case StateSleeping, StateFinished:
			if loc, ok := seen[id]; ok {
				return fmt.Errorf("kernel: %v task %d found at %s", t.taskState, id, loc)
			}
		}
	}
	return k.checkLifecycle()
}

// checkLifecycle checks the live list and the free list against the
// task table (DESIGN.md §12, "Live-task list").
func (k *Kernel) checkLifecycle() error {
	live := make(map[*Task]bool, len(k.live))
	for _, t := range k.live {
		if live[t] {
			return fmt.Errorf("kernel: task %d twice in the live list", t.ID)
		}
		live[t] = true
		if e := k.tasks[t.ID]; e != t && (e != nil || t.taskState != StateFinished) {
			return fmt.Errorf("kernel: live task %d is not its table entry", t.ID)
		}
	}
	free := make(map[*Task]bool, len(k.free))
	for _, t := range k.free {
		if free[t] || live[t] || t.taskState != StateFinished || k.tasks[t.ID] != nil || t.Spec != nil || t.state.Spec != nil {
			return fmt.Errorf("kernel: free task %d: listed twice %v, live %v, state %v, reaped %v, holds its spec %v",
				t.ID, free[t], live[t], t.taskState, k.tasks[t.ID] == nil, t.Spec != nil || t.state.Spec != nil)
		}
		free[t] = true
	}
	return nil
}
