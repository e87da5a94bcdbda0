// Package perfmodel is the reproduction's substitute for the paper's
// Gem5 cycle-accurate simulation: a first-order interval-analysis CPU
// model that maps a workload phase's intrinsic attributes onto a
// concrete core type (Table 2 parameters) and yields IPC plus the event
// rates the hardware performance counters expose (cache, TLB and branch
// miss rates, busy/stall cycle split).
//
// The model captures the mechanisms that make heterogeneity matter:
//
//   - issue-width and instruction-window limits cap how much ILP a core
//     can extract, so wide cores only pay off on high-ILP code;
//   - L1 capacity misses follow a working-set-vs-cache-size law, so
//     small caches hurt only when the working set outgrows them;
//   - memory stalls cost a number of *cycles* proportional to core
//     frequency, so fast cores are punished hardest by memory-bound
//     code (the memory wall), letting little cores close the gap;
//   - branch mispredictions flush a pipeline whose depth grows with the
//     core's width.
//
// Absolute accuracy against Gem5 is neither possible nor needed; what
// the balancers consume is the *relative* performance-power landscape,
// which these mechanisms reproduce.
package perfmodel

import (
	"math"

	"smartbalance/internal/arch"
	"smartbalance/internal/workload"
)

// Model parameters. These are fixed constants of the substrate (they
// play the role of Gem5's internal latencies), not tunables of
// SmartBalance itself.
const (
	// MemLatencyNs is the DRAM access latency seen by an L2 miss
	// (private L1/L2 with a shared bus to memory, Section 5).
	MemLatencyNs = 80.0
	// L2LatencyCycles is the private L2 hit latency (runs at the core
	// clock, so a fixed cycle count).
	L2LatencyCycles = 12.0
	// L1IMissPenaltyCycles is the front-end stall per instruction-cache
	// miss (filled from the L2).
	L1IMissPenaltyCycles = 14.0
	// TLBPenaltyCycles is the walk cost of a TLB miss.
	TLBPenaltyCycles = 30.0
	// windowILPScale controls how the ROB size limits exploitable ILP:
	// effective ILP = ILP * (1 - exp(-ROB/windowILPScale)).
	windowILPScale = 96.0
	// l1MissFloor is the compulsory/conflict miss floor when the working
	// set fits in cache.
	l1MissFloor = 0.010
	// l1dMissCap and l1iMissCap bound capacity miss rates (per access /
	// per instruction respectively).
	l1dMissCap = 0.30
	l1iMissCap = 0.12
	// L1DMissCap exports the data-cache capacity-miss ceiling for
	// callers inverting the curve (EstimateWorkingSetKB's cap argument).
	L1DMissCap = l1dMissCap
)

// Metrics is the per-(phase, core-type) steady-state behaviour: the
// quantities the paper's HPCs measure, before sensor noise.
type Metrics struct {
	// IPC is committed instructions per cycle.
	IPC float64
	// BusyFrac is the fraction of non-sleep cycles spent dispatching
	// (cyBusy); the remainder are stall cycles (cyIdle).
	BusyFrac float64
	// MissRateL1I is L1 instruction-cache misses per instruction.
	MissRateL1I float64
	// MissRateL1D is L1 data-cache misses per memory access.
	MissRateL1D float64
	// MissRateL2 is private-L2 misses per L1D miss (the conditional
	// miss probability). It is *not* part of the paper's 10-counter
	// sensing set, so the predictor never sees it — it only shapes the
	// stall time (and keeps prediction honestly imperfect).
	MissRateL2 float64
	// MispredictRate is mispredictions per branch.
	MispredictRate float64
	// MissRateITLB is instruction-TLB misses per instruction.
	MissRateITLB float64
	// MissRateDTLB is data-TLB misses per memory access.
	MissRateDTLB float64
}

// IPS returns the throughput in instructions per second on core type ct.
func (m Metrics) IPS(ct *arch.CoreType) float64 {
	return m.IPC * ct.FreqHz()
}

// CacheMissRate models the capacity behaviour of a cache of cacheKB
// kilobytes against a working set of wsKB kilobytes: a small floor while
// the working set fits, rising smoothly toward cap once it spills.
func CacheMissRate(wsKB, cacheKB, cap float64) float64 {
	if wsKB <= 0 || cacheKB <= 0 {
		return cap
	}
	ratio := wsKB / cacheKB
	if ratio <= 1 {
		// Quadratic ramp toward the floor as the set approaches capacity.
		return l1MissFloor * ratio * ratio
	}
	// Asymptotic approach to cap: even far beyond capacity a larger
	// cache still converts some misses to hits.
	return l1MissFloor + cap*(1-1/ratio)
}

// mispredictBase is the per-core-type baseline misprediction rate for a
// fully adversarial (entropy = 1) branch stream. Wider cores carry
// bigger predictors: base falls with log2(issue width).
func mispredictBase(ct *arch.CoreType) float64 {
	return 0.10 - 0.02*math.Log2(float64(ct.IssueWidth))
}

// tlbScale derives relative TLB reach from the L1 size (Table 2 carries
// no explicit TLB entry counts; caches and TLBs scale together in the
// Alpha-derived configs).
func tlbScale(l1KB int) float64 {
	return math.Sqrt(16 / float64(l1KB))
}

// mlpCap is the number of overlapping outstanding misses the core's
// load queue can sustain.
func mlpCap(ct *arch.CoreType) float64 {
	return 1 + float64(ct.LQSize)/8
}

// pipelineDepth approximates the flush cost of a misprediction.
func pipelineDepth(ct *arch.CoreType) float64 {
	return 6 + float64(ct.IssueWidth)
}

// EstimateWorkingSetKB inverts CacheMissRate: given a measured miss
// rate against a cache of cacheKB kilobytes, it recovers the working
// set that would produce it under the capacity law. This is how the
// contention-aware balancer estimates per-thread LLC appetite from the
// sensed L1D miss rate alone — sensing-driven, no ground-truth access.
// Rates at or beyond the cap (saturated) clamp to maxKB.
func EstimateWorkingSetKB(missRate, cacheKB, cap, maxKB float64) float64 {
	if cacheKB <= 0 || missRate <= 0 {
		return 0
	}
	if missRate <= l1MissFloor {
		// Below-capacity branch: miss = floor * ratio^2.
		return cacheKB * math.Sqrt(missRate/l1MissFloor)
	}
	// Spilled branch: miss = floor + cap*(1 - 1/ratio).
	frac := (missRate - l1MissFloor) / cap
	if frac >= 0.999 {
		return maxKB
	}
	ws := cacheKB / (1 - frac)
	if ws > maxKB {
		return maxKB
	}
	return ws
}

// Evaluate computes the steady-state Metrics of executing phase ph on
// core type ct with uncontended memory.
func Evaluate(ph *workload.Phase, ct *arch.CoreType) Metrics {
	return EvaluateShared(ph, ct, 1, 1)
}

// EvaluateShared is the full shared-resource evaluation: memLatScale
// inflates the effective memory latency (bus/bandwidth queueing) and
// llcMissScale inflates the conditional L2->memory miss probability
// (co-runner working sets stealing LLC capacity, internal/contention).
// Both factors clamp below at 1; at (1, 1) the arithmetic is
// bit-identical to the uncontended Evaluate — multiplying by exactly
// 1.0 is exact in IEEE 754, which is what keeps contention-disabled
// runs byte-identical.
func EvaluateShared(ph *workload.Phase, ct *arch.CoreType, memLatScale, llcMissScale float64) Metrics {
	if memLatScale < 1 {
		memLatScale = 1
	}
	if llcMissScale < 1 {
		llcMissScale = 1
	}
	var m Metrics

	// Miss rates (counter-visible events), plus the hidden L2 level.
	m.MissRateL1I = CacheMissRate(ph.WorkingSetIKB, float64(ct.L1IKB), l1iMissCap)
	m.MissRateL1D = CacheMissRate(ph.WorkingSetDKB, float64(ct.L1DKB), l1dMissCap)
	// Conditional L2 miss probability: how much of the working set the
	// (much larger) private L2 still cannot hold. The ratio of the
	// absolute capacity curves approximates P(L2 miss | L1 miss).
	if m.MissRateL1D > 0 {
		abs2 := CacheMissRate(ph.WorkingSetDKB, float64(ct.L2KB), l1dMissCap)
		m.MissRateL2 = abs2 * llcMissScale / m.MissRateL1D
		if m.MissRateL2 > 1 {
			m.MissRateL2 = 1
		}
	}
	m.MispredictRate = ph.BranchEntropy * mispredictBase(ct)
	m.MissRateITLB = ph.TLBPressureI * 0.002 * tlbScale(ct.L1IKB)
	m.MissRateDTLB = ph.TLBPressureD * 0.004 * tlbScale(ct.L1DKB)

	// Interval analysis: CPI = base dispatch + stall components.
	// The instruction window limits only the parallelism *beyond*
	// sequential execution: even a tiny ROB sustains 1 inst/cycle of
	// dependent code.
	effILP := ph.ILP
	if effILP > 1 {
		effILP = 1 + (ph.ILP-1)*(1-math.Exp(-float64(ct.ROBSize)/windowILPScale))
	}
	effIssue := math.Min(float64(ct.IssueWidth), effILP)
	if effIssue < 0.1 {
		effIssue = 0.1
	}
	cpiBase := 1 / effIssue

	freqGHz := ct.FreqMHz / 1000
	memLatCycles := MemLatencyNs * memLatScale * freqGHz

	// Branch flushes.
	cpiBranch := ph.BranchShare * m.MispredictRate * pipelineDepth(ct)
	// Data misses, overlapped up to the effective MLP: L1 misses that
	// hit the private L2 pay its fixed latency; L2 misses go to memory.
	effMLP := math.Min(ph.MLP, mlpCap(ct))
	missLat := (1-m.MissRateL2)*L2LatencyCycles + m.MissRateL2*memLatCycles
	cpiMemD := ph.MemShare * m.MissRateL1D * missLat / effMLP
	// Instruction misses stall the front end with little overlap.
	cpiMemI := m.MissRateL1I * L1IMissPenaltyCycles
	// TLB walks.
	cpiTLB := (m.MissRateITLB + ph.MemShare*m.MissRateDTLB) * TLBPenaltyCycles

	cpi := cpiBase + cpiBranch + cpiMemD + cpiMemI + cpiTLB
	ipc := 1 / cpi
	if ipc > ct.PeakIPC {
		// Table 2's peak-throughput anchor caps sustained IPC.
		ipc = ct.PeakIPC
		cpi = 1 / ipc
	}
	m.IPC = ipc
	m.BusyFrac = cpiBase / cpi
	if m.BusyFrac > 1 {
		m.BusyFrac = 1
	}
	return m
}
