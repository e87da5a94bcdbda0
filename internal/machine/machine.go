// Package machine binds the architecture, workload, performance, and
// power models into an executable abstraction: it advances a thread's
// progress through its phase cycle on a given core type for a bounded
// time slice and reports everything the hardware would have counted —
// instructions by class, busy/stall cycles, cache/TLB/branch miss
// events, and consumed energy.
//
// The discrete-event kernel (internal/kernel) calls ExecSliceOnCore
// once per scheduling quantum; the resulting counter deltas are what the
// SmartBalance sensing phase samples at context-switch time.
package machine

import (
	"errors"
	"fmt"

	"smartbalance/internal/arch"
	"smartbalance/internal/contention"
	"smartbalance/internal/hpc"
	"smartbalance/internal/perfmodel"
	"smartbalance/internal/powermodel"
	"smartbalance/internal/workload"
)

// ErrFinished is returned when a slice is requested for a thread that
// has already retired all of its instructions.
var ErrFinished = errors.New("machine: thread already finished")

// ThreadState tracks a thread's progress through its phase cycle,
// together with a per-core-type memo of the steady-state metrics of
// each phase (the phases are immutable once spawned).
type ThreadState struct {
	Spec *workload.ThreadSpec

	phaseIdx     int
	instrInPhase uint64
	cyclesDone   int
	finished     bool

	// metrics[phase*numTypes+coreType] holds the model evaluation. A
	// core type's column, every phase at once, is evaluated the first
	// time the thread needs that type, and bit coreType of filled is
	// set then. Flat layout: the lookup is one bounds check and no
	// pointer chase on the slice hot path. The core types themselves
	// are read from the calling Machine, which keeps the struct in its
	// 80-byte size class.
	filled   uint64
	numTypes int
	metrics  []perfmodel.Metrics
}

// maxTypes is the most core types a Machine accepts: one filled bit per
// type.
const maxTypes = 64

// Options tunes optional machine behaviours.
type Options struct {
	// Contention configures the shared-resource model
	// (internal/contention): co-runner working-set overlap in an LLC
	// domain inflating miss rates, domain bandwidth saturation
	// flattening IPS, and, with its bus= term, the shared memory bus of
	// the paper's Section 5 platform ("the cores are connected to the
	// main memory through a shared bus"). The zero spec disables it:
	// the cores are then independent.
	Contention contention.Spec
}

// cacheLineBytes is the transfer size of one miss.
const cacheLineBytes = 64

// Machine executes threads on the cores of one platform.
type Machine struct {
	plat *arch.Platform
	pm   *powermodel.Platform

	// cont is the shared-resource contention model; nil when disabled.
	cont *contention.Model
}

// New builds a Machine for the platform with default options. The
// platform is validated and its power models calibrated.
func New(plat *arch.Platform) (*Machine, error) {
	return NewWithOptions(plat, Options{})
}

// NewWithOptions builds a Machine with explicit options.
func NewWithOptions(plat *arch.Platform, opts Options) (*Machine, error) {
	pm, err := powermodel.NewPlatform(plat)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	if q := plat.NumTypes(); q > maxTypes {
		return nil, fmt.Errorf("machine: %d core types, at most %d supported", q, maxTypes)
	}
	cont, err := contention.NewModel(plat, opts.Contention)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	return &Machine{plat: plat, pm: pm, cont: cont}, nil
}

// Contention returns the machine's shared-resource contention model,
// or nil when the model is disabled.
func (m *Machine) Contention() *contention.Model { return m.cont }

// RecordSleep folds a quiescent interval of durNs on core into the
// contention model as a zero-footprint, zero-traffic slice, so an
// emptied core's last working set and traffic decay out of its
// domain's sums. It does nothing when the model is off.
func (m *Machine) RecordSleep(core arch.CoreID, durNs int64) {
	if m.cont != nil {
		m.cont.RecordSlice(core, durNs, 0, 0)
	}
}

// Platform returns the machine's platform.
func (m *Machine) Platform() *arch.Platform { return m.plat }

// PowerModels returns the calibrated power models.
func (m *Machine) PowerModels() *powermodel.Platform { return m.pm }

// NewThreadState validates the spec and prepares run-time state. It
// allocates the (phase, core type) table of steady-state metrics but
// evaluates none of it: a column is filled, every phase at once, the
// first time ExecSliceOnCore or SteadyMetrics needs its core type, so a
// thread pays the model only for the types it meets, and phase
// transitions stay evaluation-free. Allocating the table here keeps the
// slice path allocation-free.
func (m *Machine) NewThreadState(spec *workload.ThreadSpec) (*ThreadState, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	q := m.plat.NumTypes()
	return &ThreadState{
		Spec:     spec,
		numTypes: q,
		metrics:  make([]perfmodel.Metrics, len(spec.Phases)*q),
	}, nil
}

// Finished reports whether the thread has retired all instructions.
func (t *ThreadState) Finished() bool { return t.finished }

// PhaseIndex returns the index of the current phase.
func (t *ThreadState) PhaseIndex() int { return t.phaseIdx }

// CurrentPhase returns the phase the thread is executing (or would
// execute next).
func (t *ThreadState) CurrentPhase() *workload.Phase {
	return &t.Spec.Phases[t.phaseIdx]
}

// Progress returns (completed cycles, instructions into current phase).
func (t *ThreadState) Progress() (cycles int, instr uint64) {
	return t.cyclesDone, t.instrInPhase
}

// SteadyMetrics returns the memoised steady-state metrics of the
// thread's current phase on core type tid, filling the type's column on
// first use. This is also the oracle the predictor evaluation (Fig. 6)
// and the prediction-vs-oracle ablation compare against.
func (m *Machine) SteadyMetrics(t *ThreadState, tid arch.CoreTypeID) perfmodel.Metrics {
	return *m.phaseMetrics(t, tid)
}

// phaseMetrics returns a pointer to the current phase's entry for core
// type tid in t's memo table, first evaluating the type's column for
// every phase if it is not filled yet. Filled entries never change, so
// callers may hold the pointer across calls.
func (m *Machine) phaseMetrics(t *ThreadState, tid arch.CoreTypeID) *perfmodel.Metrics {
	q := t.numTypes
	if t.filled&(1<<uint(tid)) == 0 {
		ct := &m.plat.Types[tid]
		for p := range t.Spec.Phases {
			t.metrics[p*q+int(tid)] = perfmodel.Evaluate(&t.Spec.Phases[p], ct)
		}
		t.filled |= 1 << uint(tid)
	}
	return &t.metrics[t.phaseIdx*q+int(tid)]
}

// SliceResult reports what happened during one execution slice.
type SliceResult struct {
	// Counters are the slice's counter deltas in the bank's format.
	// RunNs is the execution time actually consumed (<= the requested
	// maximum; shorter when the thread hits a sleep point or finishes);
	// cySleep is accounted by the kernel, which owns wall time.
	hpc.Counters
	// SleepNs > 0 indicates the thread entered a sleep/wait period at
	// the end of the slice.
	SleepNs int64
	// Finished indicates the thread retired its last instruction.
	Finished bool
}

// ExecSliceOnCore runs thread t on the given core for at most
// maxDurNs of execution time and writes the counter deltas into *res
// (which is reset first; the scheduler hot path targets the core's
// pending-slice slot directly instead of copying the ~100-byte result
// twice per slice). The slice ends early at a sleep point or when the
// thread finishes. maxDurNs must be positive. Knowing the core lets
// the LLC-domain contention model degrade the slice by the core's
// co-runner pressure and fold the slice's footprint back into the
// model.
func (m *Machine) ExecSliceOnCore(res *SliceResult, t *ThreadState, core arch.CoreID, maxDurNs int64) error {
	*res = SliceResult{}
	if maxDurNs <= 0 {
		return fmt.Errorf("machine: non-positive slice duration %d", maxDurNs) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
	}
	if t.finished {
		return ErrFinished
	}
	tid := m.plat.TypeID(core)
	ct := &m.plat.Types[tid]
	pmod := m.pm.ForType(tid)
	freqGHz := ct.FreqMHz / 1000 // cycles per ns
	// Contention is sampled once per slice (the factors move on the
	// model's 5 ms EWMA scale, far slower than a slice).
	latScale, missScale := 1.0, 1.0
	if m.cont != nil {
		missScale = m.cont.MissScale(core)
		latScale = m.cont.LatScale(core)
	}

	remaining := float64(maxDurNs)
	var memTrafficBytes float64 // L2-miss traffic feeding the contention model
	wsKB := t.Spec.Phases[t.phaseIdx].WorkingSetDKB
	for remaining > 1e-9 {
		ph := &t.Spec.Phases[t.phaseIdx]
		wsKB = ph.WorkingSetDKB
		var met *perfmodel.Metrics
		var contended perfmodel.Metrics
		if latScale > 1.0001 || missScale > 1.0001 {
			contended = perfmodel.EvaluateShared(ph, ct, latScale, missScale)
			met = &contended
		} else {
			met = m.phaseMetrics(t, tid)
		}
		ipsPerNs := met.IPC * freqGHz // instructions per nanosecond

		instrLeft := ph.Instructions - t.instrInPhase
		nsNeeded := float64(instrLeft) / ipsPerNs

		var segNs float64
		var segInstr uint64
		phaseEnds := false
		if nsNeeded <= remaining {
			segNs = nsNeeded
			segInstr = instrLeft
			phaseEnds = true
		} else {
			segNs = remaining
			segInstr = uint64(segNs * ipsPerNs)
			if segInstr > instrLeft {
				segInstr = instrLeft
				phaseEnds = true
			}
		}
		if segInstr == 0 && !phaseEnds {
			// The slice remainder is too short to retire a single
			// instruction; consume it as stall time and stop.
			res.CyclesIdle += uint64(remaining * freqGHz)
			res.EnergyJ += pmod.BusyPower(0, ph) * remaining * 1e-9
			res.RunNs += int64(remaining)
			break
		}

		cycles := segNs * freqGHz
		busy := cycles * met.BusyFrac
		res.RunNs += int64(segNs + 0.5)
		res.Instructions += segInstr
		res.MemInstructions += uint64(float64(segInstr) * ph.MemShare)
		res.BranchInstructions += uint64(float64(segInstr) * ph.BranchShare)
		res.CyclesBusy += uint64(busy)
		res.CyclesIdle += uint64(cycles - busy)
		res.L1IMisses += uint64(float64(segInstr) * met.MissRateL1I)
		memOps := float64(segInstr) * ph.MemShare
		res.L1DMisses += uint64(memOps * met.MissRateL1D)
		// Only misses that escape the private L2 reach shared memory.
		llcMisses := memOps * met.MissRateL1D * met.MissRateL2
		res.LLCMisses += uint64(llcMisses)
		res.MemBytes += uint64(llcMisses * cacheLineBytes)
		memTrafficBytes += llcMisses * cacheLineBytes
		res.BranchMispredicts += uint64(float64(segInstr) * ph.BranchShare * met.MispredictRate)
		res.ITLBMisses += uint64(float64(segInstr) * met.MissRateITLB)
		res.DTLBMisses += uint64(memOps * met.MissRateDTLB)
		res.EnergyJ += pmod.EnergyJ(met.IPC, ph, int64(segNs+0.5))

		remaining -= segNs
		t.instrInPhase += segInstr

		if phaseEnds {
			sleep := ph.SleepAfterNs
			t.advancePhase()
			if t.finished {
				res.Finished = true
				break
			}
			if sleep > 0 {
				res.SleepNs = sleep
				break
			}
		}
	}
	if res.RunNs > maxDurNs {
		res.RunNs = maxDurNs
	}
	if res.RunNs <= 0 {
		// Guarantee forward progress for the event loop even when the
		// slice rounds down to zero.
		res.RunNs = 1
	}
	if m.cont != nil {
		m.cont.RecordSlice(core, res.RunNs, wsKB, memTrafficBytes)
	}
	return nil
}

// advancePhase moves to the next phase, handling cycle repetition and
// completion.
func (t *ThreadState) advancePhase() {
	t.instrInPhase = 0
	t.phaseIdx++
	if t.phaseIdx < len(t.Spec.Phases) {
		return
	}
	t.phaseIdx = 0
	t.cyclesDone++
	if t.Spec.Repeats > 0 && t.cyclesDone >= t.Spec.Repeats {
		t.finished = true
	}
}
