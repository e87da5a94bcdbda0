// Package workload models the multi-threaded workloads of the paper's
// evaluation: PARSEC-like benchmarks (including the x264 high/low
// frame-rate × crew/bowing input variants of Table 3), the six PARSEC
// mixes, and the interactive microbenchmarks (IMB) whose throughput and
// interactivity are controlled on a high/medium/low grid.
//
// A thread is described purely by *intrinsic*, core-independent phase
// attributes — instruction-level parallelism, instruction mix, working
// sets, branch entropy, memory-level parallelism, and sleep behaviour.
// The performance model (internal/perfmodel) maps these attributes onto
// a concrete core type to obtain IPC and event rates; the balancers only
// ever see the resulting counters, exactly as in the paper.
package workload

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"smartbalance/internal/rng"
)

// Phase is one execution phase of a thread: a burst of instructions with
// stationary characteristics, optionally followed by a sleep (the
// interactivity mechanism).
type Phase struct {
	// Name labels the phase for traces and tests.
	Name string
	// Instructions is the number of instructions the phase retires.
	Instructions uint64
	// ILP is the intrinsic instruction-level parallelism: how many
	// instructions per cycle the code could sustain on an infinitely
	// wide machine with perfect caches. Typical range [0.8, 6].
	ILP float64
	// MemShare is the fraction of instructions that are loads or stores
	// (the paper's I_msh).
	MemShare float64
	// BranchShare is the fraction of instructions that are branches (the
	// paper's I_bsh).
	BranchShare float64
	// WorkingSetIKB and WorkingSetDKB are the instruction and data
	// working-set sizes in KB; they determine L1 miss rates on a given
	// cache size.
	WorkingSetIKB float64
	WorkingSetDKB float64
	// BranchEntropy in [0,1] measures how hard the branches are to
	// predict: 0 is perfectly predictable, 1 is adversarial.
	BranchEntropy float64
	// MLP is the memory-level parallelism the code exposes (independent
	// outstanding misses), >= 1.
	MLP float64
	// TLBPressureI and TLBPressureD in [0,1] scale instruction/data TLB
	// miss rates (page-locality proxies).
	TLBPressureI float64
	TLBPressureD float64
	// SleepAfterNs is how long the thread sleeps after the phase
	// completes (0 for none). This is how IMB interactivity and I/O
	// waits enter the model.
	SleepAfterNs int64
}

// Validate checks phase attributes are inside their model domains.
func (p *Phase) Validate() error {
	switch {
	case p.Instructions == 0:
		return fmt.Errorf("workload: phase %q has zero instructions", p.Name)
	case !within(p.ILP, 0.1, 16):
		return fmt.Errorf("workload: phase %q ILP %.2f outside [0.1,16]", p.Name, p.ILP)
	case !within(p.MemShare, 0, 0.75):
		return fmt.Errorf("workload: phase %q MemShare %.2f outside [0,0.75]", p.Name, p.MemShare)
	case !within(p.BranchShare, 0, 0.5):
		return fmt.Errorf("workload: phase %q BranchShare %.2f outside [0,0.5]", p.Name, p.BranchShare)
	case p.MemShare+p.BranchShare > 0.95:
		return fmt.Errorf("workload: phase %q mem+branch share %.2f too high", p.Name, p.MemShare+p.BranchShare)
	case !within(p.WorkingSetIKB, math.SmallestNonzeroFloat64, math.MaxFloat64) ||
		!within(p.WorkingSetDKB, math.SmallestNonzeroFloat64, math.MaxFloat64):
		return fmt.Errorf("workload: phase %q working set not positive and finite", p.Name)
	case !within(p.BranchEntropy, 0, 1):
		return fmt.Errorf("workload: phase %q BranchEntropy %.2f outside [0,1]", p.Name, p.BranchEntropy)
	case !within(p.MLP, 1, 16):
		return fmt.Errorf("workload: phase %q MLP %.2f outside [1,16]", p.Name, p.MLP)
	case !within(p.TLBPressureI, 0, 1) || !within(p.TLBPressureD, 0, 1):
		return fmt.Errorf("workload: phase %q TLB pressure outside [0,1]", p.Name)
	case p.SleepAfterNs < 0:
		return fmt.Errorf("workload: phase %q negative sleep", p.Name)
	}
	return nil
}

// within reports lo <= v <= hi. Range checks go through it because it
// is false for NaN, which a plain v < lo || v > hi lets through.
func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

// ThreadSpec is the full behavioural description of one thread: a cycle
// of phases repeated Repeats times (0 = repeat forever, for
// fixed-duration throughput experiments).
type ThreadSpec struct {
	// Name identifies the thread, e.g. "x264H-crew.w2".
	Name string
	// Benchmark is the owning benchmark's name, e.g. "x264H-crew".
	Benchmark string
	// Phases is the phase cycle. Must be non-empty.
	Phases []Phase
	// Repeats is how many times the phase cycle runs; 0 means forever.
	Repeats int
	// Nice is the Linux nice value in [-20, 19]; 0 for all paper
	// workloads but exposed for tests of CFS weighting.
	Nice int
	// KernelThread marks an OS-internal thread. Section 5.1: user
	// threads are "identified and marked during their creation in the
	// sched_fork() function"; SmartBalance focuses on user-level threads
	// and leaves kernel threads where the scheduler put them.
	KernelThread bool
}

// Validate checks the spec and all its phases.
func (t *ThreadSpec) Validate() error {
	if t.Name == "" {
		return errors.New("workload: thread without a name")
	}
	if len(t.Phases) == 0 {
		return fmt.Errorf("workload: thread %q has no phases", t.Name)
	}
	if t.Repeats < 0 {
		return fmt.Errorf("workload: thread %q negative repeats", t.Name)
	}
	if t.Nice < -20 || t.Nice > 19 {
		return fmt.Errorf("workload: thread %q nice %d outside [-20,19]", t.Name, t.Nice)
	}
	for i := range t.Phases {
		if err := t.Phases[i].Validate(); err != nil {
			return fmt.Errorf("thread %q: %w", t.Name, err)
		}
	}
	return nil
}

// TotalInstructions returns the instructions one full pass of the phase
// cycle retires.
func (t *ThreadSpec) TotalInstructions() uint64 {
	var total uint64
	for i := range t.Phases {
		total += t.Phases[i].Instructions
	}
	return total
}

// DutyCycle estimates the fraction of wall time the thread wants to run
// (1 = fully CPU bound), assuming it retires instructions at refIPS.
// Used by tests and by utilisation-based balancers' documentation; the
// kernel measures real utilisation at run time.
func (t *ThreadSpec) DutyCycle(refIPS float64) float64 {
	if refIPS <= 0 {
		return 1
	}
	var busyNs, sleepNs float64
	for i := range t.Phases {
		busyNs += float64(t.Phases[i].Instructions) / refIPS * 1e9
		sleepNs += float64(t.Phases[i].SleepAfterNs)
	}
	if busyNs+sleepNs == 0 { //sbvet:allow floateq(both terms are non-negative; exact zero guards the division below)
		return 1
	}
	return busyNs / (busyNs + sleepNs)
}

// jitter returns v scaled by a deterministic factor in [1-amount, 1+amount].
func jitter(r *rng.Rand, v, amount float64) float64 {
	return v * (1 + amount*(2*r.Float64()-1))
}

// clampF limits v to [lo, hi].
func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// perturbPhases writes into dst a copy of src with every attribute
// jittered by a few percent, so the m worker threads of one benchmark
// are similar but not identical — mirroring real data-dependent
// workers. dst and src have the same length.
func perturbPhases(r *rng.Rand, dst, src []Phase, amount float64) {
	for i, p := range src {
		q := p
		q.Instructions = uint64(jitter(r, float64(p.Instructions), amount))
		if q.Instructions == 0 {
			q.Instructions = 1
		}
		q.ILP = clampF(jitter(r, p.ILP, amount), 0.1, 16)
		q.MemShare = clampF(jitter(r, p.MemShare, amount), 0, 0.75)
		q.BranchShare = clampF(jitter(r, p.BranchShare, amount), 0, 0.5)
		q.WorkingSetIKB = clampF(jitter(r, p.WorkingSetIKB, amount), 0.25, 1<<20)
		q.WorkingSetDKB = clampF(jitter(r, p.WorkingSetDKB, amount), 0.25, 1<<20)
		q.BranchEntropy = clampF(jitter(r, p.BranchEntropy, amount), 0, 1)
		q.MLP = clampF(jitter(r, p.MLP, amount), 1, 16)
		q.TLBPressureI = clampF(jitter(r, p.TLBPressureI, amount), 0, 1)
		q.TLBPressureD = clampF(jitter(r, p.TLBPressureD, amount), 0, 1)
		if p.SleepAfterNs > 0 {
			q.SleepAfterNs = int64(jitter(r, float64(p.SleepAfterNs), amount))
			if q.SleepAfterNs < 0 {
				q.SleepAfterNs = 0
			}
		}
		dst[i] = q
	}
}

// Spawn materialises nthreads worker threads from a benchmark profile,
// named "<benchName>.w<index>", each with deterministic per-worker
// jitter derived from seed: worker w's phases are drawn from a
// generator reseeded with the w-th value of seed's stream. The workers'
// phases share one backing array, each capped at its own length, so
// an append to one spec's Phases never writes into the next.
func Spawn(benchName string, base []Phase, nthreads int, seed uint64) ([]ThreadSpec, error) {
	if nthreads < 1 {
		return nil, fmt.Errorf("workload: Spawn %q needs >= 1 thread", benchName)
	}
	r := rng.New(seed)
	var wr rng.Rand
	n := len(base)
	phases := make([]Phase, nthreads*n)
	specs := make([]ThreadSpec, nthreads)
	name := append([]byte(benchName), ".w"...)
	prefix := len(name)
	for w := 0; w < nthreads; w++ {
		wr.Reseed(r.Uint64())
		ph := phases[w*n : (w+1)*n : (w+1)*n]
		perturbPhases(&wr, ph, base, 0.08)
		name = strconv.AppendInt(name[:prefix], int64(w), 10)
		specs[w] = ThreadSpec{
			Name:      string(name),
			Benchmark: benchName,
			Phases:    ph,
		}
		if err := specs[w].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}
