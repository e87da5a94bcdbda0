// Package hpc models the on-chip sensing infrastructure of the paper's
// Section 4.1: per-thread hardware performance counters sampled at
// every context switch (cycle, instruction, and performance-degradation
// event counters) and per-core power sensors. A Bank accumulates
// samples over one SmartBalance epoch and yields the measurements the
// estimation phase consumes.
//
// Real sensors are imperfect; the Bank optionally injects multiplicative
// Gaussian noise into the power readings (the counters themselves are
// exact in hardware). This keeps the Fig. 6 prediction-error evaluation
// honest.
//
// # Storage layout
//
// The Bank is a flat structure-of-arrays slot store (DESIGN.md §12):
// each live (thread, core) pair owns one slot in parallel arrays
// (counters, owning core, chain link, epoch stamp), threaded into a
// per-thread chain kept sorted by core id. Epoch rollover is O(1) — a
// stamp bump lazily invalidates every slot — and slots freed by
// ReleaseThread go to an ordered free-list so the lowest slot index is
// always reused first, keeping the store dense and slot assignment
// deterministic. Snapshots copy the epoch's live slots into
// double-buffered output arenas sorted by (thread, core), so the hot
// sense path performs no map operations and no steady-state
// allocations.
package hpc

import (
	"fmt"

	"smartbalance/internal/rng"
)

// Counters is the set of raw per-thread counter deltas collected during
// one scheduled slice: exactly the counters listed in Section 4.1.
type Counters struct {
	RunNs              int64  // execution time on the core
	Instructions       uint64 // I_total
	MemInstructions    uint64 // I_mem (committed loads + stores)
	BranchInstructions uint64 // I_branch
	CyclesBusy         uint64 // cyBusy
	CyclesIdle         uint64 // cyIdle (stalls)
	L1IMisses          uint64
	L1DMisses          uint64
	BranchMispredicts  uint64
	ITLBMisses         uint64
	DTLBMisses         uint64
	LLCMisses          uint64  // L1D misses that escaped the private L2 to memory
	MemBytes           uint64  // line traffic of those misses on the memory fabric
	EnergyJ            float64 // from the per-core power sensor
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.RunNs += o.RunNs
	c.Instructions += o.Instructions
	c.MemInstructions += o.MemInstructions
	c.BranchInstructions += o.BranchInstructions
	c.CyclesBusy += o.CyclesBusy
	c.CyclesIdle += o.CyclesIdle
	c.L1IMisses += o.L1IMisses
	c.L1DMisses += o.L1DMisses
	c.BranchMispredicts += o.BranchMispredicts
	c.ITLBMisses += o.ITLBMisses
	c.DTLBMisses += o.DTLBMisses
	c.LLCMisses += o.LLCMisses
	c.MemBytes += o.MemBytes
	c.EnergyJ += o.EnergyJ
}

// Derived per-thread quantities (Section 4.1's rates). All are guarded
// against zero denominators.

// IPS returns instructions per second over the accumulated run time.
func (c *Counters) IPS() float64 {
	if c.RunNs <= 0 {
		return 0
	}
	return float64(c.Instructions) / (float64(c.RunNs) * 1e-9)
}

// IPC returns instructions per non-sleep cycle.
func (c *Counters) IPC() float64 {
	tot := c.CyclesBusy + c.CyclesIdle
	if tot == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(tot)
}

// PowerW returns average power over the accumulated run time.
func (c *Counters) PowerW() float64 {
	if c.RunNs <= 0 {
		return 0
	}
	return c.EnergyJ / (float64(c.RunNs) * 1e-9)
}

// MemShare returns I_msh = I_mem / I_total.
func (c *Counters) MemShare() float64 { return ratio(c.MemInstructions, c.Instructions) }

// BranchShare returns I_bsh = I_branch / I_total.
func (c *Counters) BranchShare() float64 { return ratio(c.BranchInstructions, c.Instructions) }

// MissRateL1I returns L1I misses per instruction.
func (c *Counters) MissRateL1I() float64 { return ratio(c.L1IMisses, c.Instructions) }

// MissRateL1D returns L1D misses per memory access.
func (c *Counters) MissRateL1D() float64 { return ratio(c.L1DMisses, c.MemInstructions) }

// MispredictRate returns mispredictions per branch.
func (c *Counters) MispredictRate() float64 { return ratio(c.BranchMispredicts, c.BranchInstructions) }

// MissRateITLB returns ITLB misses per instruction.
func (c *Counters) MissRateITLB() float64 { return ratio(c.ITLBMisses, c.Instructions) }

// MissRateDTLB returns DTLB misses per memory access.
func (c *Counters) MissRateDTLB() float64 { return ratio(c.DTLBMisses, c.MemInstructions) }

// MissRateLLC returns LLC (private-L2-to-memory) misses per L1D miss —
// the conditional miss probability the contention model inflates.
func (c *Counters) MissRateLLC() float64 { return ratio(c.LLCMisses, c.L1DMisses) }

// MemBWGBps returns the memory traffic rate in GB/s (bytes per
// nanosecond) over the accumulated run time.
func (c *Counters) MemBWGBps() float64 {
	if c.RunNs <= 0 {
		return 0
	}
	return float64(c.MemBytes) / float64(c.RunNs)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Noise configures sensor imperfection.
type Noise struct {
	// PowerSigma is the relative standard deviation of the power-sensor
	// reading (e.g. 0.02 for 2%). Zero disables noise.
	PowerSigma float64
}

// CoreCounters pairs a core id with the counters a thread accumulated
// on that core.
type CoreCounters struct {
	Core int
	C    Counters
}

// ThreadEpochSample is the per-thread measurement of one epoch: counters
// accumulated per core the thread ran on (threads can migrate
// mid-epoch under balancers that act asynchronously).
type ThreadEpochSample struct {
	// PerCore holds the accumulated counters per core, sorted ascending
	// by core id. Iteration order is therefore deterministic; no caller
	// can reintroduce map-order dependence.
	PerCore []CoreCounters
}

// Total returns all counters summed across cores.
func (s *ThreadEpochSample) Total() Counters {
	var t Counters
	for i := range s.PerCore {
		t.Add(&s.PerCore[i].C)
	}
	return t
}

// DominantCore returns the core the thread spent most run time on
// during the epoch and the counters accumulated there; ties resolve to
// the smallest core id (free with the sorted PerCore order). ok is
// false when the thread never ran.
func (s *ThreadEpochSample) DominantCore() (core int, c *Counters, ok bool) {
	best := int64(-1)
	for i := range s.PerCore {
		cc := &s.PerCore[i]
		if cc.C.RunNs > best {
			best = cc.C.RunNs
			core, c, ok = cc.Core, &cc.C, true
		}
	}
	return core, c, ok
}

// ThreadSample pairs a thread id with its epoch sample inside a
// snapshot, which is sorted ascending by Thread.
type ThreadSample struct {
	Thread int
	Sample *ThreadEpochSample
}

// FindThread binary-searches a snapshot (sorted ascending by thread id)
// for tid; nil when the thread has no sample this epoch.
func FindThread(threads []ThreadSample, tid int) *ThreadEpochSample {
	lo, hi := 0, len(threads)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if threads[mid].Thread < tid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(threads) && threads[lo].Thread == tid {
		return threads[lo].Sample
	}
	return nil
}

// CoreEpochSample aggregates a core's view of one epoch.
type CoreEpochSample struct {
	BusyNs  int64 // time executing threads
	SleepNs int64 // time in the quiescent state
	Agg     Counters
	// SleepEnergyJ is the energy burnt while power-gated.
	SleepEnergyJ float64
}

// PowerW returns the core's average power over the epoch window
// (busy + sleep time).
func (c *CoreEpochSample) PowerW() float64 {
	tot := c.BusyNs + c.SleepNs
	if tot <= 0 {
		return 0
	}
	return (c.Agg.EnergyJ + c.SleepEnergyJ) / (float64(tot) * 1e-9)
}

// snapBuf is one of the two rotating snapshot output arenas.
type snapBuf struct {
	threads []ThreadSample
	samples []ThreadEpochSample
	perCore []CoreCounters
}

// Bank accumulates samples for one epoch across all cores and threads.
type Bank struct {
	numCores int
	noise    Noise
	r        *rng.Rand

	// Slot store: parallel arrays indexed by slot. A slot belongs to one
	// (thread, core) pair until the thread is released.
	counters  []Counters
	slotCore  []int32
	slotNext  []int32  // next slot in the owning thread's chain, -1 ends
	slotStamp []uint32 // epoch the slot was last written; lazy zeroing

	// free holds released slots sorted descending, so allocSlot pops the
	// lowest index first (the "ordered free-list": deterministic, dense).
	free []int32

	// threadHead maps thread id -> first chain slot (-1 none). Thread
	// ids are expected dense (the kernel assigns them from 0).
	threadHead []int32

	epoch uint32

	cores    []CoreEpochSample // accumulating buffer (coreBufs[active])
	coreBufs [2][]CoreEpochSample
	active   int
	snaps    [2]snapBuf
	snapIdx  int
}

// NewBank creates a counter bank for numCores cores.
func NewBank(numCores int, noise Noise, seed uint64) (*Bank, error) {
	if numCores < 1 {
		return nil, fmt.Errorf("hpc: need at least one core, got %d", numCores)
	}
	if noise.PowerSigma < 0 || noise.PowerSigma > 0.5 {
		return nil, fmt.Errorf("hpc: power sigma %g outside [0, 0.5]", noise.PowerSigma)
	}
	b := &Bank{
		numCores: numCores,
		noise:    noise,
		r:        rng.New(seed),
		epoch:    1,
	}
	b.coreBufs[0] = make([]CoreEpochSample, numCores)
	b.coreBufs[1] = make([]CoreEpochSample, numCores)
	b.cores = b.coreBufs[0]
	return b, nil
}

// slotFor finds or creates the slot for (tid, core), keeping the
// thread's chain sorted ascending by core. threadHead must already
// cover tid.
func (b *Bank) slotFor(tid, core int) int32 {
	prev := int32(-1)
	s := b.threadHead[tid]
	for s >= 0 && int(b.slotCore[s]) < core {
		prev, s = s, b.slotNext[s]
	}
	if s >= 0 && int(b.slotCore[s]) == core {
		return s
	}
	ns := b.allocSlot(core)
	b.slotNext[ns] = s
	if prev < 0 {
		b.threadHead[tid] = ns
	} else {
		b.slotNext[prev] = ns
	}
	return ns
}

// allocSlot takes the lowest free slot, or extends the store.
func (b *Bank) allocSlot(core int) int32 {
	if n := len(b.free); n > 0 {
		s := b.free[n-1]
		b.free = b.free[:n-1]
		b.slotCore[s] = int32(core)
		b.slotStamp[s] = 0
		return s
	}
	s := int32(len(b.counters))
	b.counters = append(b.counters, Counters{})  //sbvet:allow hotpath(slot store grows to the live (thread,core) population once; slots are reused via the free-list)
	b.slotCore = append(b.slotCore, int32(core)) //sbvet:allow hotpath(slot store grows to the live (thread,core) population once; slots are reused via the free-list)
	b.slotNext = append(b.slotNext, -1)          //sbvet:allow hotpath(slot store grows to the live (thread,core) population once; slots are reused via the free-list)
	b.slotStamp = append(b.slotStamp, 0)         //sbvet:allow hotpath(slot store grows to the live (thread,core) population once; slots are reused via the free-list)
	return s
}

// RecordSlice records the counter deltas of one scheduled slice of
// thread tid on core core, applying power-sensor noise. Called by the
// kernel at every context switch (the granularity of Linux's
// schedule(), as in Section 5.1).
func (b *Bank) RecordSlice(tid, core int, c Counters) error {
	if core < 0 || core >= b.numCores {
		return fmt.Errorf("hpc: core %d out of range [0,%d)", core, b.numCores)
	}
	if tid < 0 {
		return fmt.Errorf("hpc: negative thread id %d", tid)
	}
	if c.RunNs < 0 {
		return fmt.Errorf("hpc: negative run time %d", c.RunNs)
	}
	if b.noise.PowerSigma > 0 {
		c.EnergyJ *= 1 + b.noise.PowerSigma*b.r.NormFloat64()
		if c.EnergyJ < 0 {
			c.EnergyJ = 0
		}
	}
	if tid >= len(b.threadHead) {
		b.growThreads(tid + 1)
	}
	s := b.slotFor(tid, core)
	if b.slotStamp[s] != b.epoch {
		b.slotStamp[s] = b.epoch
		b.counters[s] = c
	} else {
		b.counters[s].Add(&c)
	}

	cs := &b.cores[core]
	cs.BusyNs += c.RunNs
	cs.Agg.Add(&c)
	return nil
}

// growThreads extends threadHead to cover n thread ids.
func (b *Bank) growThreads(n int) {
	for len(b.threadHead) < n {
		b.threadHead = append(b.threadHead, -1) //sbvet:allow hotpath(thread table grows to the peak thread-id once over a run)
	}
}

// ReleaseThread returns every slot of an exited thread to the free-list
// (lowest-index-first reuse). Call only after the thread's final epoch
// has been snapshotted: snapshots copy slot data out, so released slots
// never alias a live view.
func (b *Bank) ReleaseThread(tid int) {
	if tid < 0 || tid >= len(b.threadHead) {
		return
	}
	for s := b.threadHead[tid]; s >= 0; {
		next := b.slotNext[s]
		b.slotNext[s] = -1
		b.slotStamp[s] = 0
		b.freeSlot(s)
		s = next
	}
	b.threadHead[tid] = -1
}

// freeSlot inserts s into the descending-sorted free-list.
func (b *Bank) freeSlot(s int32) {
	lo, hi := 0, len(b.free)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.free[mid] > s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b.free = append(b.free, 0) //sbvet:allow hotpath(free-list capacity is bounded by the peak live slot count; growth is amortized and the backing array is reused across epochs)
	copy(b.free[lo+1:], b.free[lo:])
	b.free[lo] = s
}

// RecordSleep accounts quiescent time (and its residual leakage energy)
// on a core.
func (b *Bank) RecordSleep(core int, ns int64, energyJ float64) error {
	if core < 0 || core >= b.numCores {
		return fmt.Errorf("hpc: core %d out of range [0,%d)", core, b.numCores) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
	}
	if ns < 0 {
		return fmt.Errorf("hpc: negative sleep %d", ns) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
	}
	b.cores[core].SleepNs += ns
	b.cores[core].SleepEnergyJ += energyJ
	return nil
}

// Snapshot returns the accumulated epoch samples — threads sorted
// ascending by thread id, each sample's PerCore sorted ascending by
// core — and resets the bank for the next epoch in O(live slots).
//
// The returned views are double-buffered bank scratch: they stay valid
// until the *next* Snapshot call and must not be written. Callers that
// need longer retention (e.g. fault injectors replaying stale samples)
// must copy.
func (b *Bank) Snapshot() ([]ThreadSample, []CoreEpochSample) {
	o := &b.snaps[b.snapIdx]
	b.snapIdx ^= 1
	// First walk: count the epoch's entries and sampled threads, so each
	// arena grows at most once, then fill by index.
	entries, threads := 0, 0
	for _, head := range b.threadHead {
		n := 0
		for s := head; s >= 0; s = b.slotNext[s] {
			if b.slotStamp[s] == b.epoch {
				n++
			}
		}
		entries += n
		if n > 0 {
			threads++
		}
	}
	o.perCore = grow(o.perCore, entries)
	o.samples = grow(o.samples, threads)
	o.threads = grow(o.threads, threads)
	e, th := 0, 0
	for tid, head := range b.threadHead {
		start := e
		for s := head; s >= 0; s = b.slotNext[s] {
			if b.slotStamp[s] == b.epoch {
				o.perCore[e] = CoreCounters{Core: int(b.slotCore[s]), C: b.counters[s]}
				e++
			}
		}
		if e > start {
			o.samples[th] = ThreadEpochSample{PerCore: o.perCore[start:e:e]}
			o.threads[th] = ThreadSample{Thread: tid, Sample: &o.samples[th]}
			th++
		}
	}
	b.epoch++

	cores := b.cores
	b.active ^= 1
	next := b.coreBufs[b.active]
	for i := range next {
		next[i] = CoreEpochSample{}
	}
	b.cores = next
	return o.threads, cores
}

// grow returns s resized to n. It reallocates only when s is short, to
// at least twice its capacity, so an arena that creeps up over a run's
// first epochs is re-made a logarithmic number of times. Contents are
// unspecified; callers overwrite every element.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n, max(n, 2*cap(s))) //sbvet:allow hotpath(double-buffered snapshot arena — grows to the epoch's live count, at least doubling, and is reused every other epoch)
	}
	return s[:n]
}

// NumCores returns the bank's core count.
func (b *Bank) NumCores() int { return b.numCores }
