// Package core implements SmartBalance itself: the closed-loop
// sense-predict-balance load balancer of the paper.
//
// Each epoch the controller (1) senses per-thread hardware counters and
// power collected at context-switch granularity, (2) estimates each
// thread's throughput and power contribution on the core it ran on
// (Eq. 4-7), (3) predicts its throughput and power on every *other*
// core type with a trained linear model (Eq. 8-9), assembling the
// throughput matrix S(k) and power matrix P(k), and (4) runs a
// fixed-point simulated-annealing optimisation (Algorithm 1) of the
// energy-efficiency objective J_E (Eq. 10-11) to choose the next
// epoch's allocation, applied through the kernel's migration interface.
package core

import (
	"smartbalance/internal/arch"
	"smartbalance/internal/hpc"
)

// Measurement is the estimation-phase output for one thread: its sensed
// behaviour on the core it (predominantly) executed on during the
// epoch. These are the ips_ij(k) and p_ij(k) of Eq. (4) and (5),
// together with the workload-characterisation counters of Section 4.1
// that feed the cross-core predictor.
type Measurement struct {
	// Core is the core the thread ran on; SrcType its type.
	Core    arch.CoreID
	SrcType arch.CoreTypeID

	// IPC and IPS are the measured throughput; PowerW the measured
	// average power attributable to the thread while it ran.
	IPC    float64
	IPS    float64
	PowerW float64

	// Workload characterisation rates (the predictor features).
	MissL1I     float64 // mr$i: L1I misses per instruction
	MissL1D     float64 // mr$d: L1D misses per memory access
	MemShare    float64 // I_msh
	BranchShare float64 // I_bsh
	Mispredict  float64 // mr_b: mispredicts per branch
	MissITLB    float64 // mr_itlb
	MissDTLB    float64 // mr_dtlb

	// Shared-resource counters (internal/contention). These are sensed
	// alongside the predictor features but deliberately kept out of the
	// trained feature set (the paper's 10-counter interface is fixed);
	// the balancer's contention term consumes them directly.
	MissLLC  float64 // LLC misses per L1D miss (conditional L2->memory rate)
	MemBWGBs float64 // memory traffic in GB/s while running

	// Util is the thread's runnable fraction of the epoch, the U vector
	// of Algorithm 1's inputs.
	Util float64

	// Valid marks a measurement backed by at least one sampled slice.
	Valid bool
}

// SenseStatus classifies the outcome of sensing one thread's epoch
// sample (DESIGN.md §9): the balancer treats SenseNoSample as benign
// (the thread slept; fall back to its last characterisation at full
// confidence) and SenseInvalid as sensor damage (fall back with decayed
// confidence, count toward the degraded-epoch majority).
type SenseStatus int

const (
	// SenseOK: the sample is present and physically plausible.
	SenseOK SenseStatus = iota
	// SenseNoSample: the thread has no usable counters this epoch. On
	// clean sensing this only happens when it never ran (or ran
	// zero-instruction slivers); whether it is benign depends on the
	// scheduler's own run-time accounting, which the caller owns.
	SenseNoSample
	// SenseInvalid: counters exist but fail plausibility — non-finite
	// or negative values, or rates outside the core type's physical
	// envelope. Impossible on clean sensing; treat as a fault.
	SenseInvalid
)

// String names the status.
func (s SenseStatus) String() string {
	switch s {
	case SenseOK:
		return "ok"
	case SenseNoSample:
		return "nosample"
	case SenseInvalid:
		return "invalid"
	default:
		return "unknown"
	}
}

// Plausibility envelope headrooms. The measured IPC/IPS can run
// slightly past the Table 2 peak anchor through rounding in the
// counter-to-rate conversion, and measured power legitimately exceeds
// the peak-throughput anchor under instruction mixes more expensive
// than the calibration mix plus sensor noise — hence generous slack.
// Faults this envelope is built to catch (saturated counters, spiked
// power sensors) overshoot it by orders of magnitude.
const (
	ipcHeadroom   = 1.05
	powerHeadroom = 4.0
	// llcLineBytes is the transfer size of one LLC miss; the bandwidth
	// envelope is one line per retired instruction at peak throughput.
	llcLineBytes = 64.0
)

// SenseChecked converts one thread's epoch counter sample into a
// Measurement, implementing the estimation step of Section 4.2.1:
// per-thread averages over the L scheduling periods of the epoch. A
// sample that is missing or empty (the thread slept throughout) yields
// SenseNoSample, and the caller falls back to its last known
// measurement. The step is hardened: the Measurement is validated
// against the platform's physical envelope, and one that is present
// but implausible — non-finite values, negative energy, a dominant core
// off the platform, IPC/IPS beyond the core type's peak, power outside
// (0, 4x peak] — yields SenseInvalid and must not reach Eq. 8-11. On
// clean sensing every sample maps to (m, SenseOK) or SenseNoSample.
//
//sbvet:hotpath
func SenseChecked(sample *hpc.ThreadEpochSample, util float64, plat *arch.Platform) (Measurement, SenseStatus) {
	if sample == nil {
		return Measurement{}, SenseNoSample
	}
	coreInt, counters, ok := sample.DominantCore()
	if !ok {
		return Measurement{}, SenseNoSample
	}
	if coreInt < 0 || coreInt >= plat.NumCores() {
		return Measurement{}, SenseInvalid
	}
	if counters.Instructions == 0 || counters.RunNs <= 0 {
		// No committed work on the dominant core: on clean sensing this
		// is a thread that slept (or ran only zero-instruction
		// slivers). A zero-wiped sample lands here too; the caller
		// disambiguates against the scheduler's run-time accounting.
		return Measurement{}, SenseNoSample
	}
	core := arch.CoreID(coreInt)
	ct := plat.Type(core)
	m := assemble(core, plat.TypeID(core), counters, util)

	if !finiteMeasurement(&m) {
		return Measurement{}, SenseInvalid
	}
	if counters.EnergyJ < 0 || m.PowerW <= 0 {
		// Negative energy is unphysical; exactly-zero power over a
		// slice that committed instructions is a dead power sensor (the
		// hpc noise clamp floors individual draws at zero, but a whole
		// sampled slice burning no energy does not happen).
		return Measurement{}, SenseInvalid
	}
	if m.IPC > ct.PeakIPC*ipcHeadroom {
		return Measurement{}, SenseInvalid
	}
	if m.IPS > ct.PeakIPC*ct.FreqHz()*ipcHeadroom {
		return Measurement{}, SenseInvalid
	}
	if m.PowerW > ct.PeakPowerW*powerHeadroom {
		return Measurement{}, SenseInvalid
	}
	if m.MissLLC > ipcHeadroom {
		// A conditional miss probability cannot exceed 1.
		return Measurement{}, SenseInvalid
	}
	if m.MemBWGBs > ct.PeakIPC*(ct.FreqMHz/1000)*llcLineBytes*ipcHeadroom {
		// More than one line of traffic per retired instruction at peak
		// throughput: saturated counters, not physics.
		return Measurement{}, SenseInvalid
	}
	return m, SenseOK
}

// assemble builds the Measurement from a dominant-core counter set.
func assemble(core arch.CoreID, srcType arch.CoreTypeID, counters *hpc.Counters, util float64) Measurement {
	return Measurement{
		Core:        core,
		SrcType:     srcType,
		IPC:         counters.IPC(),
		IPS:         counters.IPS(),
		PowerW:      counters.PowerW(),
		MissL1I:     counters.MissRateL1I(),
		MissL1D:     counters.MissRateL1D(),
		MemShare:    counters.MemShare(),
		BranchShare: counters.BranchShare(),
		Mispredict:  counters.MispredictRate(),
		MissITLB:    counters.MissRateITLB(),
		MissDTLB:    counters.MissRateDTLB(),
		MissLLC:     counters.MissRateLLC(),
		MemBWGBs:    counters.MemBWGBps(),
		Util:        util,
		Valid:       true,
	}
}

// finiteMeasurement reports whether every derived field of m is finite.
// An explicit field walk rather than a range over a slice literal, which
// would allocate on the hot sensing path.
func finiteMeasurement(m *Measurement) bool {
	return isFinite(m.IPC) && isFinite(m.IPS) && isFinite(m.PowerW) &&
		isFinite(m.MissL1I) && isFinite(m.MissL1D) && isFinite(m.MemShare) &&
		isFinite(m.BranchShare) && isFinite(m.Mispredict) &&
		isFinite(m.MissITLB) && isFinite(m.MissDTLB) &&
		isFinite(m.MissLLC) && isFinite(m.MemBWGBs) && isFinite(m.Util)
}
