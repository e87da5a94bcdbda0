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

	// metrics[phase*numTypes+coreType] holds the memoised model
	// evaluation; valid marks filled entries. Flat layout: the lookup
	// is one bounds check and no pointer chase on the slice hot path.
	numTypes int
	metrics  []perfmodel.Metrics
	valid    []bool
}

// Options tunes optional machine behaviours.
type Options struct {
	// BusBandwidthGBps, when positive, enables the shared-memory-bus
	// contention model of the paper's Section 5 platform ("the cores
	// are connected to the main memory through a shared bus"):
	// aggregate L1-miss traffic across all cores inflates everyone's
	// effective memory latency with an M/M/1-style queueing factor.
	// Zero disables contention (independent cores).
	BusBandwidthGBps float64
	// Contention configures the LLC-domain shared-resource model
	// (internal/contention): co-runner working-set overlap inflating
	// miss rates and domain bandwidth saturation flattening IPS. The
	// zero spec disables it; it composes with the global bus model.
	Contention contention.Spec
}

// Bus-model constants.
const (
	// cacheLineBytes is the transfer size of one miss.
	cacheLineBytes = 64
	// busTauNs is the traffic-EWMA window.
	busTauNs = 5e6
	// busMaxUtil caps the queueing factor (scale <= 10x).
	busMaxUtil = 0.9
)

// Machine executes threads on the cores of one platform.
type Machine struct {
	plat *arch.Platform
	pm   *powermodel.Platform
	opts Options

	// busBytesPerNs is the decayed average of L1-miss traffic; 1 GB/s
	// equals one byte per nanosecond.
	busBytesPerNs float64

	// cont is the LLC-domain contention model; nil when disabled.
	cont *contention.Model
}

// New builds a Machine for the platform with default options. The
// platform is validated and its power models calibrated.
func New(plat *arch.Platform) (*Machine, error) {
	return NewWithOptions(plat, Options{})
}

// NewWithOptions builds a Machine with explicit options.
func NewWithOptions(plat *arch.Platform, opts Options) (*Machine, error) {
	if opts.BusBandwidthGBps < 0 {
		return nil, fmt.Errorf("machine: negative bus bandwidth %g", opts.BusBandwidthGBps)
	}
	pm, err := powermodel.NewPlatform(plat)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	cont, err := contention.NewModel(plat, opts.Contention)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	return &Machine{plat: plat, pm: pm, opts: opts, cont: cont}, nil
}

// Contention returns the machine's LLC-domain contention model, or nil
// when the model is disabled.
func (m *Machine) Contention() *contention.Model { return m.cont }

// MemLatencyScale returns the current contention multiplier applied to
// memory latency (1 when the bus model is disabled or unloaded).
func (m *Machine) MemLatencyScale() float64 {
	if m.opts.BusBandwidthGBps <= 0 {
		return 1
	}
	util := m.busBytesPerNs / m.opts.BusBandwidthGBps
	if util > busMaxUtil {
		util = busMaxUtil
	}
	if util < 0 {
		util = 0
	}
	return 1 / (1 - util)
}

// recordBusTraffic folds a slice's miss traffic into the EWMA.
func (m *Machine) recordBusTraffic(durNs int64, missBytes float64) {
	if m.opts.BusBandwidthGBps <= 0 || durNs <= 0 {
		return
	}
	w := float64(durNs) / (float64(durNs) + busTauNs)
	m.busBytesPerNs = (1-w)*m.busBytesPerNs + w*(missBytes/float64(durNs))
}

// Platform returns the machine's platform.
func (m *Machine) Platform() *arch.Platform { return m.plat }

// PowerModels returns the calibrated power models.
func (m *Machine) PowerModels() *powermodel.Platform { return m.pm }

// NewThreadState validates the spec and prepares run-time state. The
// steady-state metrics of every (phase, core type) pair are evaluated
// eagerly — the spec is immutable and the table is small, so paying
// the model up front keeps phase transitions free of evaluation work
// on the slice hot path.
func (m *Machine) NewThreadState(spec *workload.ThreadSpec) (*ThreadState, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	n := len(spec.Phases)
	q := m.plat.NumTypes()
	ts := &ThreadState{
		Spec:     spec,
		numTypes: q,
		metrics:  make([]perfmodel.Metrics, n*q),
		valid:    make([]bool, n*q),
	}
	for p := 0; p < n; p++ {
		for c := 0; c < q; c++ {
			ts.metrics[p*q+c] = perfmodel.Evaluate(&spec.Phases[p], &m.plat.Types[c])
			ts.valid[p*q+c] = true
		}
	}
	return ts, nil
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
// thread's current phase on core type tid. This is also the oracle the
// predictor evaluation (Fig. 6) and the prediction-vs-oracle ablation
// compare against.
func (m *Machine) SteadyMetrics(t *ThreadState, tid arch.CoreTypeID) perfmodel.Metrics {
	return *m.phaseMetrics(t, t.phaseIdx, tid)
}

// phaseMetrics returns a pointer into the memo table; the entry is
// immutable once filled, so callers may hold it across calls.
func (m *Machine) phaseMetrics(t *ThreadState, phase int, tid arch.CoreTypeID) *perfmodel.Metrics {
	idx := phase*t.numTypes + int(tid)
	if !t.valid[idx] {
		t.metrics[idx] = perfmodel.Evaluate(&t.Spec.Phases[phase], &m.plat.Types[tid])
		t.valid[idx] = true
	}
	return &t.metrics[idx]
}

// SliceResult reports what happened during one execution slice.
type SliceResult struct {
	// DurNs is the execution time actually consumed (<= the requested
	// maximum; shorter when the thread hits a sleep point or finishes).
	DurNs int64
	// Instruction counters (the paper's I_total, I_mem, I_branch).
	Instructions       uint64
	MemInstructions    uint64
	BranchInstructions uint64
	// Cycle counters (cyBusy and cyIdle; cySleep is accounted by the
	// kernel, which owns wall time).
	CyclesBusy uint64
	CyclesIdle uint64
	// Performance-degradation event counters.
	L1IMisses         uint64
	L1DMisses         uint64
	BranchMispredicts uint64
	ITLBMisses        uint64
	DTLBMisses        uint64
	// LLCMisses counts L1D misses that also missed the private L2 and
	// went to memory; MemBytes is the corresponding line traffic. These
	// are the counters the contention model and its sensing envelope
	// consume.
	LLCMisses uint64
	MemBytes  uint64
	// EnergyJ is the energy consumed by the core during the slice.
	EnergyJ float64
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
	// busTauNs/ewmaTauNs scale, far slower than a slice).
	latScale := m.MemLatencyScale()
	missScale := 1.0
	if m.cont != nil {
		missScale = m.cont.MissScale(core)
		latScale *= m.cont.LatScale(core)
	}

	remaining := float64(maxDurNs)
	var memTrafficBytes float64 // L2-miss traffic feeding the shared bus
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
			met = m.phaseMetrics(t, t.phaseIdx, tid)
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
			res.DurNs += int64(remaining)
			break
		}

		cycles := segNs * freqGHz
		busy := cycles * met.BusyFrac
		res.DurNs += int64(segNs + 0.5)
		res.Instructions += segInstr
		res.MemInstructions += uint64(float64(segInstr) * ph.MemShare)
		res.BranchInstructions += uint64(float64(segInstr) * ph.BranchShare)
		res.CyclesBusy += uint64(busy)
		res.CyclesIdle += uint64(cycles - busy)
		res.L1IMisses += uint64(float64(segInstr) * met.MissRateL1I)
		memOps := float64(segInstr) * ph.MemShare
		res.L1DMisses += uint64(memOps * met.MissRateL1D)
		// Only misses that escape the private L2 reach the shared bus.
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
	if res.DurNs > maxDurNs {
		res.DurNs = maxDurNs
	}
	if res.DurNs <= 0 {
		// Guarantee forward progress for the event loop even when the
		// slice rounds down to zero.
		res.DurNs = 1
	}
	m.recordBusTraffic(res.DurNs, memTrafficBytes)
	if m.cont != nil {
		m.cont.RecordSlice(core, res.DurNs, wsKB, memTrafficBytes)
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
