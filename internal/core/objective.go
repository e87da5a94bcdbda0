package core

import (
	"errors"
	"fmt"
	"math"

	"smartbalance/internal/arch"
)

// ObjectiveMode selects how per-core throughput/power pairs aggregate
// into the scalar objective J_E of Eq. (10)-(11).
//
// The paper states the goal as "maximizing overall energy efficiency
// (i.e., IPS/Watt or Instructions per Joule)" and formalises it as a
// weighted sum J_E = Σ ω_j IPS_j/P_j. Read literally, the sum of
// per-core ratios never rewards emptying (power-gating) an inefficient
// core — an empty core merely contributes 0 while a populated one adds
// a positive term — so it cannot reproduce the measured overall-IPS/W
// gains of Fig. 4. GlobalRatio therefore optimises the overall ratio
// Σ_j ω_j·IPS_j / Σ_j P_j (with quiescent cores contributing their
// gated leakage to the denominator), which is the quantity the paper's
// evaluation actually measures; PerCoreRatioSum retains the literal
// Eq. (11) form as an ablation.
type ObjectiveMode int

// Objective modes. Section 4.3: "An objective or a cost function for
// the allocation problem can be defined in several ways according to
// the desired optimization goals."
const (
	// GlobalRatio maximises overall IPS/Watt (default).
	GlobalRatio ObjectiveMode = iota
	// PerCoreRatioSum maximises the literal Eq. (11) weighted sum of
	// per-core IPS/Watt ratios.
	PerCoreRatioSum
	// MaxThroughput maximises aggregate IPS, ignoring power — the
	// performance-first goal the related work (Becchi, Kumar) pursues.
	MaxThroughput
)

// String names the mode.
func (m ObjectiveMode) String() string {
	switch m {
	case GlobalRatio:
		return "global-ratio"
	case PerCoreRatioSum:
		return "per-core-ratio-sum"
	case MaxThroughput:
		return "max-throughput"
	default:
		return fmt.Sprintf("ObjectiveMode(%d)", int(m))
	}
}

// Problem is the allocation-optimisation input assembled by the
// predict phase: the throughput matrix S(k) (Eq. 2), the power matrix
// P(k) (Eq. 3), the thread utilisation vector U, per-core idle power,
// and the objective weights ω_j of Eq. (11).
type Problem struct {
	// IPS[i][j] is thread i's (measured or predicted) throughput on
	// core j, in instructions per second.
	IPS [][]float64
	// Power[i][j] is thread i's (measured or predicted) average power
	// on core j, in watts.
	Power [][]float64
	// Util[i] is thread i's runnable fraction of an epoch in [0, 1].
	Util []float64
	// IdlePower[j] is core j's power when it has nothing to run
	// (quiescent-state leakage).
	IdlePower []float64
	// Weights are the ω_j of Eq. (11); nil means all ones.
	Weights []float64
	// Mode selects the aggregation (zero value: GlobalRatio).
	Mode ObjectiveMode
	// Allowed[i][j], when non-nil, restricts thread i to cores with a
	// true entry — the affinity constraints the paper notes "can easily
	// be included". nil (or a nil row) means unrestricted.
	Allowed [][]bool
	// Contention, when non-nil, adds the shared-resource interference
	// term: candidate allocations that oversubscribe an LLC domain's
	// capacity or bandwidth have their throughput discounted. nil keeps
	// the contention-blind objective, bit-for-bit.
	Contention *ContentionTerm
}

// ContentionTerm is the optimiser-side view of the LLC-domain model
// (internal/contention): the static domain partition plus per-thread
// sensed appetite estimates. The optimiser discounts each domain's
// throughput contribution by a penalty that grows with the pooled
// working set beyond the domain LLC and with bandwidth utilisation —
// the same mechanisms the machine-side model applies to ground truth,
// so minimising predicted interference minimises real interference.
type ContentionTerm struct {
	// DomainOf maps core j -> LLC-domain index.
	DomainOf []int32
	// DomLLCKB and DomBWGBps are the per-domain capacities.
	DomLLCKB  []float64
	DomBWGBps []float64
	// WsKB[i] is thread i's estimated data working set (KB), inverted
	// from its sensed L1D miss rate; BwGBps[i] its estimated memory
	// bandwidth demand (sensed traffic scaled by utilisation).
	WsKB   []float64
	BwGBps []float64
	// MissSlope scales the capacity-oversubscription penalty;
	// PressureCap and MaxBWUtil clamp the two terms.
	MissSlope   float64
	PressureCap float64
	MaxBWUtil   float64
}

// penalty returns the throughput discount factor for a core whose LLC
// domain d carries co-runner working set wsKB and bandwidth demand
// bwGBps beyond the core's own (the same self-exclusion the machine
// model applies: a core alone in its domain sees factor exactly 1, and
// a thread is never charged for pressure it generates itself — only
// for what its co-runners inflict on it).
func (t *ContentionTerm) penalty(d int, wsKB, bwGBps float64) float64 {
	pressure := wsKB / t.DomLLCKB[d]
	if pressure < 0 {
		pressure = 0
	} else if pressure > t.PressureCap {
		pressure = t.PressureCap
	}
	util := bwGBps / t.DomBWGBps[d]
	if util < 0 {
		util = 0
	} else if util > t.MaxBWUtil {
		util = t.MaxBWUtil
	}
	return 1 / (1 + t.MissSlope*pressure + util/(1-util))
}

// validate checks the term's shape against m threads and n cores.
func (t *ContentionTerm) validate(m, n int) error {
	if len(t.DomainOf) != n {
		return errContentionShape
	}
	nd := len(t.DomLLCKB)
	if nd == 0 || len(t.DomBWGBps) != nd {
		return errContentionShape
	}
	for _, d := range t.DomainOf {
		if int(d) < 0 || int(d) >= nd {
			return errContentionShape
		}
	}
	if len(t.WsKB) != m || len(t.BwGBps) != m {
		return errContentionShape
	}
	for d := 0; d < nd; d++ {
		if !finitePos(t.DomLLCKB[d]) || !finitePos(t.DomBWGBps[d]) {
			return errContentionDomain
		}
	}
	for i := 0; i < m; i++ {
		if !finiteNonNeg(t.WsKB[i]) || !finiteNonNeg(t.BwGBps[i]) {
			return errContentionThread
		}
	}
	if !finiteNonNeg(t.MissSlope) || !finitePos(t.PressureCap) || !(t.MaxBWUtil > 0 && t.MaxBWUtil < 1) {
		return errContentionShape
	}
	return nil
}

// AllowedOn reports whether thread i may run on core j.
func (p *Problem) AllowedOn(i, j int) bool {
	if p.Allowed == nil || p.Allowed[i] == nil {
		return true
	}
	return j < len(p.Allowed[i]) && p.Allowed[i][j]
}

// NumThreads returns m.
func (p *Problem) NumThreads() int { return len(p.IPS) }

// NumCores returns n.
func (p *Problem) NumCores() int { return len(p.IdlePower) }

// Validation sentinels. Predeclared so the per-epoch Validate call
// constructs nothing on its accepting path (hot-path purity contract);
// the shaped fmt.Errorf diagnostics below fire only on rejected input.
var (
	errNoThreads    = errors.New("core: problem with no threads")
	errNoCores      = errors.New("core: problem with no cores")
	errRowCounts    = errors.New("core: matrix row counts disagree")
	errWeightWidth  = errors.New("core: weight vector width != cores")
	errWeightValue  = errors.New("core: non-finite weight")
	errAffinityRows = errors.New("core: affinity matrix row count != threads")
	errAllocLen     = errors.New("core: allocation length != thread count")
	errAllocCore    = errors.New("core: allocation addresses invalid core")

	errContentionShape  = errors.New("core: contention term shape mismatch")
	errContentionDomain = errors.New("core: contention domain with non-positive or non-finite capacity")
	errContentionThread = errors.New("core: contention thread estimate negative or non-finite")
)

// finiteNonNeg reports whether v is finite and >= 0; NaN fails both
// comparisons.
func finiteNonNeg(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// finitePos reports whether v is finite and > 0.
func finitePos(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// Validate checks the problem's shape and value domains. Every value
// must be finite: a NaN or infinite input would otherwise pass the
// range checks and poison the objective.
func (p *Problem) Validate() error {
	m := len(p.IPS)
	if m == 0 {
		return errNoThreads
	}
	n := len(p.IdlePower)
	if n == 0 {
		return errNoCores
	}
	if len(p.Power) != m || len(p.Util) != m {
		return errRowCounts
	}
	for i := 0; i < m; i++ {
		if len(p.IPS[i]) != n || len(p.Power[i]) != n {
			return fmt.Errorf("core: thread %d row width != %d cores", i, n) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
		}
		// Written so NaN fails: every comparison with NaN is false.
		if !(p.Util[i] >= 0 && p.Util[i] <= 1) {
			return fmt.Errorf("core: thread %d utilisation %g outside [0,1]", i, p.Util[i]) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
		}
		for j := 0; j < n; j++ {
			if !finiteNonNeg(p.IPS[i][j]) || !finiteNonNeg(p.Power[i][j]) {
				return fmt.Errorf("core: negative or non-finite entry at (%d,%d)", i, j) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
			}
		}
	}
	if p.Weights != nil {
		if len(p.Weights) != n {
			return errWeightWidth
		}
		for _, w := range p.Weights {
			if !isFinite(w) {
				return errWeightValue
			}
		}
	}
	for j := range p.IdlePower {
		if !finiteNonNeg(p.IdlePower[j]) {
			return fmt.Errorf("core: negative or non-finite idle power on core %d", j) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
		}
	}
	if p.Allowed != nil {
		if len(p.Allowed) != m {
			return errAffinityRows
		}
		for i, row := range p.Allowed {
			if row == nil {
				continue
			}
			if len(row) != n {
				return fmt.Errorf("core: thread %d affinity row width != cores", i) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
			}
			any := false
			for _, ok := range row {
				if ok {
					any = true
					break
				}
			}
			if !any {
				return fmt.Errorf("core: thread %d has an empty affinity set", i) //sbvet:allow hotpath(diagnostic formats only on the rejected-input path)
			}
		}
	}
	if p.Contention != nil {
		if err := p.Contention.validate(m, n); err != nil {
			return err
		}
	}
	return nil
}

// unsaturated is 0 when thread i demands exactly one core-second per
// second, 1 otherwise. Summed per core it picks the edits whose shares
// come from the saturated-share table.
func (p *Problem) unsaturated(i int) int32 {
	if p.Util[i] == 1 { //sbvet:allow floateq(exactly 1.0 is the demand the saturated-share table was built for; any other value takes the reference water-fill)
		return 0
	}
	return 1
}

// weight returns ω_j.
func (p *Problem) weight(j int) float64 {
	if p.Weights == nil {
		return 1
	}
	return p.Weights[j]
}

// Allocation is the Ψ(k) of Eq. (1), encoded as thread -> core.
type Allocation []arch.CoreID

// Clone returns a copy.
func (a Allocation) Clone() Allocation {
	out := make(Allocation, len(a)) //sbvet:allow hotpath(ownership-transferring copy; reached in-epoch only through the oracle ablation balancer, outside the zero-alloc contract)
	copy(out, a)
	return out
}

// Valid reports whether every entry addresses one of n cores.
func (a Allocation) Valid(n int) bool {
	for _, c := range a {
		if int(c) < 0 || int(c) >= n {
			return false
		}
	}
	return true
}

// coreShare computes, for the threads mapped to one core, each
// thread's share of core time under CFS time-sharing: fair water-
// filling of one core-second per second among threads capped by their
// utilisation demand. utils must be the demands of the threads on this
// core; the return value is aligned with it. Allocating convenience
// form of the reference coreShareInto.
func coreShare(utils []float64) []float64 {
	shares := make([]float64, len(utils))
	coreShareInto(shares, utils, make([]int, len(utils)))
	return shares
}

// coreShareInto computes the fair shares into shares (len(utils)),
// using idx (len(utils)) as index-sort scratch. The index sort is an
// insertion sort: per-core thread counts are small (tens at most),
// where it beats sort.Slice anyway — and unlike sort.Slice it costs no
// closure and no interface boxing on the epoch path. It is the
// reference water-fill that scoreEdit's insertDemand and fairShares
// reproduce bit for bit.
func coreShareInto(shares, utils []float64, idx []int) {
	n := len(utils)
	if n == 0 {
		return
	}
	// Sort indices by demand ascending; threads below the fair share
	// take their demand, releasing capacity to the rest.
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		k := idx[i]
		j := i - 1
		for j >= 0 && utils[idx[j]] > utils[k] {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = k
	}
	capacity := 1.0
	remaining := n
	for _, i := range idx {
		fair := capacity / float64(remaining)
		s := utils[i]
		if s > fair {
			s = fair
		}
		shares[i] = s
		capacity -= s
		remaining--
	}
}

// insertDemand stores demand u at position n and inserts n into idx[:n],
// the positions sorted by ascending demand, after every demand it does
// not exceed; it returns n+1. Called for positions 0, 1, ... it is
// coreShareInto's insertion sort (stable: tied demands keep list
// order), run as the demands are read.
func insertDemand(utils []float64, idx []int, n int, u float64) int {
	utils[n] = u
	r := n
	for r > 0 && utils[idx[r-1]] > u {
		idx[r] = idx[r-1]
		r--
	}
	idx[r] = n
	return n + 1
}

// fairShares is coreShareInto's water-fill given idx, the positions
// sorted by ascending demand: threads below the fair share take their
// demand, releasing capacity to the rest. Each fair share is
// capacity/remaining, as in the reference; the first, 1.0/n, is the
// saturated-share table's first column, and the last step's capacity/1
// is capacity itself, so every share keeps its bits.
func fairShares(shares, utils []float64, idx []int) {
	n := len(utils)
	capacity := 1.0
	for r, i := range idx {
		var fair float64
		switch {
		case r == 0 && n < len(satShares):
			fair = satShares[n][0]
		case r == n-1:
			fair = capacity
		default:
			fair = capacity / float64(n-r)
		}
		s := utils[i]
		if s > fair {
			s = fair
		}
		shares[i] = s
		capacity -= s
	}
}

// satShares[k][:k] are the fair shares on a core of k members that all
// demand exactly 1.0, computed once with the reference coreShareInto.
// Equal demands make its stable sort the identity, and no fair share
// exceeds a demand of 1.0, so the shares depend on k alone;
// satShares[k][0] is 1.0/k.
var satShares = func() (t [64][64]float64) {
	var ones [64]float64
	var idx [64]int
	for k := range ones {
		ones[k] = 1
	}
	for k := 1; k < len(t); k++ {
		coreShareInto(t[k][:k], ones[:k], idx[:k])
	}
	return t
}()

// coreEval computes one core's expected throughput (weighted, in GIPS)
// and power (W) for the threads mapped to it, using the evaluator's
// scratch buffers. An empty core draws its quiescent idle power and
// produces nothing. It is the reference scorer: Reset scores every
// core with it, and the tests hold scoreEdit's in-place edits to it.
func (e *Evaluator) coreEval(j int, threads []int) (gips, power float64) {
	p := e.prob
	if len(threads) == 0 {
		return 0, p.IdlePower[j]
	}
	n := len(threads)
	for k, i := range threads {
		e.utilScratch[k] = p.Util[i]
	}
	coreShareInto(e.shareScratch[:n], e.utilScratch[:n], e.idxScratch[:n])
	var ips, busy float64
	for k, i := range threads {
		s := e.shareScratch[k]
		ips += s * p.IPS[i][j]
		power += s * p.Power[i][j]
		busy += s
	}
	power += (1 - busy) * p.IdlePower[j]
	return p.weight(j) * ips / 1e9, power
}

// scoreEdit scores core j as it would stand with member skip removed
// and thread add appended (a negative skip or add: none). It reads
// members in place, in the order removeInPlace and append would leave
// them, so it equals coreEval of that edited list bit for bit. When
// every demand on the edited core is exactly 1.0 and it has fewer than
// 64 members, its shares are the saturated-share table's row, which
// the one accumulation loop sums in the same order.
func (e *Evaluator) scoreEdit(j int, members []int, skip, add int) (gips, power float64) {
	p := e.prob
	size, unsat := len(members), e.unsat[j]
	if skip >= 0 {
		size--
		unsat -= p.unsaturated(skip)
	}
	if add >= 0 {
		size++
		unsat += p.unsaturated(add)
	}
	if size == 0 {
		return 0, p.IdlePower[j]
	}
	var share []float64
	if unsat == 0 && size < len(satShares) {
		share = satShares[size][:size]
	} else {
		util, idx := e.utilScratch, e.idxScratch
		n := 0
		for _, i := range members {
			if i != skip {
				n = insertDemand(util, idx, n, p.Util[i])
			}
		}
		if add >= 0 {
			insertDemand(util, idx, n, p.Util[add])
		}
		share = e.shareScratch[:size]
		fairShares(share, util[:size], idx[:size])
	}
	var ips, busy float64
	k := 0
	for _, i := range members {
		if i == skip {
			continue
		}
		s := share[k]
		k++
		ips += s * p.IPS[i][j]
		power += s * p.Power[i][j]
		busy += s
	}
	if add >= 0 {
		s := share[k]
		ips += s * p.IPS[add][j]
		power += s * p.Power[add][j]
		busy += s
	}
	power += (1 - busy) * p.IdlePower[j]
	return p.weight(j) * ips / 1e9, power
}

// editMemo is one memoised core edit: the (gips, power) pair a core
// scores with one thread removed or appended, and the stamp of the core
// state it was scored in.
type editMemo struct {
	stamp       uint64
	gips, power float64
}

// Evaluator maintains an allocation's objective value with O(changed
// cores) incremental updates — the paper's "keeping track of previous
// computations and obtaining a new evaluation only by performing
// computations induced by the latest swap on Ψ".
//
// Three caches keep each annealer iteration to the work the candidate
// move induces (DESIGN.md §11): obj holds the current allocation's
// objective, folded once per Reset and once per applied move; pv holds
// the per-core pairs the last MoveDelta/SwapDelta scored, which the
// matching Move/Swap commits instead of re-evaluating the cores; and
// the edit memo scores each "core minus thread i" and "core j plus
// thread i" at most once per core state.
type Evaluator struct {
	prob   *Problem
	alloc  Allocation
	byCore [][]int // thread indices per core

	coreGIPS []float64
	corePow  []float64
	sumGIPS  float64
	sumPow   float64
	ratioSum float64 // Σ ω_j IPS_j/P_j for PerCoreRatioSum mode
	obj      float64 // fold() of the current allocation
	pv       preview

	// Contention aggregates, maintained only when the problem carries a
	// ContentionTerm (zero-length otherwise): the pooled thread
	// appetites (working set, bandwidth) per LLC domain and per core. A
	// move or swap touches at most two cores and two domains, so these
	// stay O(1) to maintain; the penalised objective is an O(cores)
	// fold where core j's discount is driven by its domain aggregate
	// minus its own contribution (self-exclusion, mirroring the
	// machine-side model). pen caches each core's discount under the
	// current allocation; a commit refreshes it only in the (at most
	// two) domains whose aggregates moved.
	domWs  []float64
	domBw  []float64
	coreWs []float64
	coreBw []float64
	pen    []float64

	// unsat[j] counts core j's members whose demand is not exactly 1.0;
	// scoreEdit reads the saturated-share table for an edit that leaves
	// it at 0.
	unsat []int32

	// Core version stamps and the edit memo. clock is never reset; Reset
	// and every commit give the cores they touch fresh stamps, so a
	// core's member order is a function of its stamp, and a memo entry
	// tagged with its core's current stamp is exactly what a re-score
	// would return. without[i] is thread i's core scored without i;
	// with[i*n+j] is core j scored with thread i appended. Entries left
	// from earlier Resets carry stale stamps and are never served.
	clock   uint64
	stamp   []uint64
	without []editMemo
	with    []editMemo

	// Scratch reused across Reset calls and delta previews, so a
	// controller-owned evaluator allocates nothing in steady state
	// (DESIGN.md §11). utilScratch/shareScratch/idxScratch back
	// coreEval and scoreEdit, sized by Reset for one core holding
	// every thread.
	utilScratch  []float64
	shareScratch []float64
	idxScratch   []int
}

// preview is a scored but uncommitted move or swap: the candidate and
// the (gips, power) pairs its two cores would take. Core a is the move
// source (swap: thread i's core), core b the destination (thread k's
// core). Any commit or Reset invalidates it.
type preview struct {
	ok     bool
	swap   bool
	i, k   int         // moved thread; swap partner
	dst    arch.CoreID // move destination
	ga, wa float64
	gb, wb float64
}

// NewEvaluator builds an evaluator for the initial allocation.
func NewEvaluator(prob *Problem, initial Allocation) (*Evaluator, error) {
	e := &Evaluator{}
	if err := e.Reset(prob, initial); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-targets the evaluator at a (possibly different) problem and
// initial allocation, reusing every internal buffer whose capacity
// suffices. A controller that owns one Evaluator and Resets it per
// epoch therefore stops paying the construction allocations after the
// first few epochs.
func (e *Evaluator) Reset(prob *Problem, initial Allocation) error {
	if err := prob.Validate(); err != nil {
		return err
	}
	if len(initial) != prob.NumThreads() {
		return errAllocLen
	}
	if !initial.Valid(prob.NumCores()) {
		return errAllocCore
	}
	n := prob.NumCores()
	e.prob = prob
	e.alloc = grow(e.alloc, len(initial))
	copy(e.alloc, initial)
	e.byCore = growRows(e.byCore, n)
	for j := range e.byCore {
		e.byCore[j] = e.byCore[j][:0]
	}
	e.coreGIPS = grow(e.coreGIPS, n)
	e.corePow = grow(e.corePow, n)
	e.unsat = grow(e.unsat, n)
	for j := range e.unsat {
		e.unsat[j] = 0
	}
	e.stamp = grow(e.stamp, n)
	for j := range e.stamp {
		e.clock++
		e.stamp[j] = e.clock
	}
	e.without = grow(e.without, len(initial))
	e.with = grow(e.with, len(initial)*n)
	// coreEval's and scoreEdit's scratch: a core, edited or not, holds
	// at most all the threads.
	e.utilScratch = grow(e.utilScratch, len(initial))
	e.shareScratch = grow(e.shareScratch, len(initial))
	e.idxScratch = grow(e.idxScratch, len(initial))
	e.sumGIPS, e.sumPow, e.ratioSum = 0, 0, 0
	for i, c := range e.alloc {
		e.byCore[c] = append(e.byCore[c], i) //sbvet:allow hotpath(per-core member rows keep their high-water capacity across Resets)
		e.unsat[c] += prob.unsaturated(i)
	}
	for j := range e.coreGIPS {
		g, w := e.coreEval(j, e.byCore[j])
		e.coreGIPS[j] = g
		e.corePow[j] = w
		e.sumGIPS += g
		e.sumPow += w
		e.ratioSum += ratio(g, w)
	}
	if t := prob.Contention; t != nil {
		nd := len(t.DomLLCKB)
		e.domWs = grow(e.domWs, nd)
		e.domBw = grow(e.domBw, nd)
		for d := 0; d < nd; d++ {
			e.domWs[d], e.domBw[d] = 0, 0
		}
		e.coreWs = grow(e.coreWs, n)
		e.coreBw = grow(e.coreBw, n)
		for j := 0; j < n; j++ {
			e.coreWs[j], e.coreBw[j] = 0, 0
		}
		for i, c := range e.alloc {
			d := t.DomainOf[c]
			e.domWs[d] += t.WsKB[i]
			e.domBw[d] += t.BwGBps[i]
			e.coreWs[c] += t.WsKB[i]
			e.coreBw[c] += t.BwGBps[i]
		}
		e.pen = grow(e.pen, n)
		for j := range e.pen {
			e.pen[j] = e.corePen(j)
		}
	} else {
		e.domWs = e.domWs[:0]
		e.domBw = e.domBw[:0]
		e.coreWs = e.coreWs[:0]
		e.coreBw = e.coreBw[:0]
		e.pen = e.pen[:0]
	}
	e.pv = preview{}
	e.obj = e.fold()
	return nil
}

// ratio is the per-core Eq. (11) term. An empty core scores a literal
// 0 GIPS (coreEval and scoreEdit), so its term is 0 at any idle power.
func ratio(gips, pow float64) float64 {
	if pow <= 0 {
		return 0
	}
	return gips / pow
}

// Objective returns the current J_E under the problem's mode, as
// folded by the last Reset or applied move.
func (e *Evaluator) Objective() float64 { return e.obj }

// fold computes J_E from the per-core caches. With a contention term
// the throughput side is a penalty-discounted fold over cores — each
// core discounted by the co-runner appetite pooled in its LLC domain,
// its own contribution excluded — while power is never discounted
// (contention wastes cycles, it does not save energy).
func (e *Evaluator) fold() float64 {
	if e.prob.Contention != nil {
		var s float64
		for j, pen := range e.pen {
			s += e.contTerm(pen, e.coreGIPS[j], e.corePow[j])
		}
		return e.contFinish(s, e.sumPow)
	}
	switch e.prob.Mode {
	case PerCoreRatioSum:
		return e.ratioSum
	case MaxThroughput:
		return e.sumGIPS
	default:
		if e.sumPow <= 0 {
			return 0
		}
		return e.sumGIPS / e.sumPow
	}
}

// Allocation returns a copy of the current allocation.
func (e *Evaluator) Allocation() Allocation { return e.alloc.Clone() }

// objectiveWith computes the objective if cores a and b had the given
// replacement (gips, pow) values.
func (e *Evaluator) objectiveWith(a, b int, ga, wa, gb, wb float64) float64 {
	switch e.prob.Mode {
	case PerCoreRatioSum:
		s := e.ratioSum
		s -= ratio(e.coreGIPS[a], e.corePow[a])
		s -= ratio(e.coreGIPS[b], e.corePow[b])
		s += ratio(ga, wa) + ratio(gb, wb)
		return s
	case MaxThroughput:
		return e.sumGIPS - e.coreGIPS[a] - e.coreGIPS[b] + ga + gb
	default:
		g := e.sumGIPS - e.coreGIPS[a] - e.coreGIPS[b] + ga + gb
		w := e.sumPow - e.corePow[a] - e.corePow[b] + wa + wb
		if w <= 0 {
			return 0
		}
		return g / w
	}
}

// objectiveWithCont computes the penalised objective if cores a and b
// had the given replacement values and their pooled thread appetites
// (and so their LLC domains') shifted by the given deltas. The deltas
// land on the domain aggregates of every *other* core in the affected
// domains; for cores a and b themselves the domain and own-core shifts
// cancel (self-exclusion: a core's discount never reflects its own
// threads, only its co-runners').
func (e *Evaluator) objectiveWithCont(a, b int, ga, wa, gb, wb, dwsA, dbwA, dwsB, dbwB float64) float64 {
	t := e.prob.Contention
	da, db := t.DomainOf[a], t.DomainOf[b]
	var s float64
	for j, pen := range e.pen {
		g, w := e.coreGIPS[j], e.corePow[j]
		if j == a {
			g, w = ga, wa
		} else if j == b {
			g, w = gb, wb
		}
		// A discount no shift lands on is the cached one, corePen's
		// expression on the same operands: every core outside the two
		// touched domains, and a's and b's own when the domains differ.
		d := t.DomainOf[j]
		shiftA, shiftB := d == da && j != a, d == db && j != b
		if shiftA || shiftB {
			ws := e.domWs[d] - e.coreWs[j]
			bw := e.domBw[d] - e.coreBw[j]
			if shiftA {
				ws += dwsA
				bw += dbwA
			}
			if shiftB {
				ws += dwsB
				bw += dbwB
			}
			pen = t.penalty(int(d), ws, bw)
		}
		s += e.contTerm(pen, g, w)
	}
	return e.contFinish(s, e.sumPow-e.corePow[a]-e.corePow[b]+wa+wb)
}

// contTerm is one core's term of the contended fold: its discounted
// Eq. (11) ratio under PerCoreRatioSum, its discounted GIPS otherwise.
func (e *Evaluator) contTerm(pen, g, w float64) float64 {
	if e.prob.Mode == PerCoreRatioSum {
		return pen * ratio(g, w)
	}
	return pen * g
}

// contFinish turns the contended fold s into J_E, given the total
// (never discounted) power.
func (e *Evaluator) contFinish(s, pow float64) float64 {
	switch e.prob.Mode {
	case PerCoreRatioSum, MaxThroughput:
		return s
	default:
		if pow <= 0 {
			return 0
		}
		return s / pow
	}
}

// corePen is core j's contention discount under the current
// allocation: its domain's pooled appetite less its own.
func (e *Evaluator) corePen(j int) float64 {
	d := e.prob.Contention.DomainOf[j]
	return e.prob.Contention.penalty(int(d), e.domWs[d]-e.coreWs[j], e.domBw[d]-e.coreBw[j])
}

// refreshPen recomputes the cached discount of every core in LLC
// domains da and db after a commit moved their aggregates.
func (e *Evaluator) refreshPen(da, db int32) {
	for j, d := range e.prob.Contention.DomainOf {
		if d == da || d == db {
			e.pen[j] = e.corePen(j)
		}
	}
}

// MoveDelta returns the objective change of moving thread i to core
// dst, without applying it. The scored cores stay cached for a
// following Move(i, dst).
func (e *Evaluator) MoveDelta(i int, dst arch.CoreID) float64 {
	src := e.alloc[i]
	if src == dst {
		return 0
	}
	e.scoreMove(i, dst)
	pv := &e.pv
	if t := e.prob.Contention; t != nil {
		return e.objectiveWithCont(int(src), int(dst), pv.ga, pv.wa, pv.gb, pv.wb,
			-t.WsKB[i], -t.BwGBps[i], t.WsKB[i], t.BwGBps[i]) - e.obj
	}
	return e.objectiveWith(int(src), int(dst), pv.ga, pv.wa, pv.gb, pv.wb) - e.obj
}

// scoreMove evaluates thread i's source and destination cores as they
// would stand after moving it to dst, into e.pv, through the edit memo.
func (e *Evaluator) scoreMove(i int, dst arch.CoreID) {
	src, d := int(e.alloc[i]), int(dst)
	rm, ad := &e.without[i], &e.with[i*len(e.stamp)+d]
	if rm.stamp != e.stamp[src] {
		e.rescore(rm, src, i, -1)
	}
	if ad.stamp != e.stamp[d] {
		e.rescore(ad, d, -1, i)
	}
	e.pv = preview{ok: true, i: i, dst: dst, ga: rm.gips, wa: rm.power, gb: ad.gips, wb: ad.power}
}

// rescore scores the edit of core j that memo entry m stands for in
// place and stores it under j's current stamp.
func (e *Evaluator) rescore(m *editMemo, j, skip, add int) {
	m.gips, m.power = e.scoreEdit(j, e.byCore[j], skip, add)
	m.stamp = e.stamp[j]
}

// Move applies the move of thread i to core dst, updating caches, and
// returns the objective delta.
func (e *Evaluator) Move(i int, dst arch.CoreID) float64 {
	src := e.alloc[i]
	if src == dst {
		return 0
	}
	if pv := &e.pv; !pv.ok || pv.swap || pv.i != i || pv.dst != dst {
		e.scoreMove(i, dst)
	}
	e.byCore[src] = removeInPlace(e.byCore[src], i)
	e.byCore[dst] = append(e.byCore[dst], i) //sbvet:allow hotpath(per-core member rows keep their high-water capacity; growth stops after the first epochs)
	e.alloc[i] = dst
	u := e.prob.unsaturated(i)
	e.unsat[src] -= u
	e.unsat[dst] += u
	if t := e.prob.Contention; t != nil {
		ds, dd := t.DomainOf[src], t.DomainOf[dst]
		e.domWs[ds] -= t.WsKB[i]
		e.domBw[ds] -= t.BwGBps[i]
		e.domWs[dd] += t.WsKB[i]
		e.domBw[dd] += t.BwGBps[i]
		e.coreWs[src] -= t.WsKB[i]
		e.coreBw[src] -= t.BwGBps[i]
		e.coreWs[dst] += t.WsKB[i]
		e.coreBw[dst] += t.BwGBps[i]
	}
	return e.commit(int(src), int(dst))
}

// SwapDelta returns the objective change of swapping the cores of
// threads i and k without applying it. The scored cores stay cached
// for a following Swap(i, k).
func (e *Evaluator) SwapDelta(i, k int) float64 {
	ci, ck := e.alloc[i], e.alloc[k]
	if ci == ck {
		return 0
	}
	e.scoreSwap(i, k)
	pv := &e.pv
	if t := e.prob.Contention; t != nil {
		return e.objectiveWithCont(int(ci), int(ck), pv.ga, pv.wa, pv.gb, pv.wb,
			t.WsKB[k]-t.WsKB[i], t.BwGBps[k]-t.BwGBps[i],
			t.WsKB[i]-t.WsKB[k], t.BwGBps[i]-t.BwGBps[k]) - e.obj
	}
	return e.objectiveWith(int(ci), int(ck), pv.ga, pv.wa, pv.gb, pv.wb) - e.obj
}

// scoreSwap evaluates the cores of threads i and k as they would stand
// after swapping them, into e.pv, scoring both member lists in place.
func (e *Evaluator) scoreSwap(i, k int) {
	ci, ck := int(e.alloc[i]), int(e.alloc[k])
	ga, wa := e.scoreEdit(ci, e.byCore[ci], i, k)
	gb, wb := e.scoreEdit(ck, e.byCore[ck], k, i)
	e.pv = preview{ok: true, swap: true, i: i, k: k, ga: ga, wa: wa, gb: gb, wb: wb}
}

// Swap applies the swap of threads i and k and returns the delta.
func (e *Evaluator) Swap(i, k int) float64 {
	ci, ck := e.alloc[i], e.alloc[k]
	if ci == ck {
		return 0
	}
	if pv := &e.pv; !pv.ok || !pv.swap || pv.i != i || pv.k != k {
		e.scoreSwap(i, k)
	}
	e.byCore[ci] = append(removeInPlace(e.byCore[ci], i), k) //sbvet:allow hotpath(the in-place removal freed one slot, so this append never grows)
	e.byCore[ck] = append(removeInPlace(e.byCore[ck], k), i) //sbvet:allow hotpath(the in-place removal freed one slot, so this append never grows)
	e.alloc[i], e.alloc[k] = ck, ci
	u := e.prob.unsaturated(k) - e.prob.unsaturated(i)
	e.unsat[ci] += u
	e.unsat[ck] -= u
	if t := e.prob.Contention; t != nil {
		di, dk := t.DomainOf[ci], t.DomainOf[ck]
		e.domWs[di] += t.WsKB[k] - t.WsKB[i]
		e.domBw[di] += t.BwGBps[k] - t.BwGBps[i]
		e.domWs[dk] += t.WsKB[i] - t.WsKB[k]
		e.domBw[dk] += t.BwGBps[i] - t.BwGBps[k]
		e.coreWs[ci] += t.WsKB[k] - t.WsKB[i]
		e.coreBw[ci] += t.BwGBps[k] - t.BwGBps[i]
		e.coreWs[ck] += t.WsKB[i] - t.WsKB[k]
		e.coreBw[ck] += t.BwGBps[i] - t.BwGBps[k]
	}
	return e.commit(int(ci), int(ck))
}

// commit installs the scored preview's pairs on cores a then b (the
// running sums are order-sensitive, and the golden trajectories pin
// this order), gives both fresh stamps, refolds the cached objective
// and returns its change.
func (e *Evaluator) commit(a, b int) float64 {
	before := e.obj
	e.setCore(a, e.pv.ga, e.pv.wa)
	e.setCore(b, e.pv.gb, e.pv.wb)
	e.pv.ok = false
	e.clock++
	e.stamp[a] = e.clock
	e.clock++
	e.stamp[b] = e.clock
	if t := e.prob.Contention; t != nil {
		e.refreshPen(t.DomainOf[a], t.DomainOf[b])
	}
	e.obj = e.fold()
	return e.obj - before
}

// setCore replaces core j's cached contribution after a membership
// change.
func (e *Evaluator) setCore(j int, g, w float64) {
	e.sumGIPS -= e.coreGIPS[j]
	e.sumPow -= e.corePow[j]
	e.ratioSum -= ratio(e.coreGIPS[j], e.corePow[j])
	e.coreGIPS[j] = g
	e.corePow[j] = w
	e.sumGIPS += g
	e.sumPow += w
	e.ratioSum += ratio(g, w)
}

// removeInPlace deletes the first occurrence of v from s, preserving
// order, without allocating.
func removeInPlace(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			copy(s[i:], s[i+1:])
			return s[:len(s)-1]
		}
	}
	return s
}

// EvaluateAllocation computes J_E of an allocation from scratch; the
// reference implementation the incremental evaluator is tested against,
// and the scorer used by the brute-force oracle.
func EvaluateAllocation(prob *Problem, alloc Allocation) (float64, error) {
	e, err := NewEvaluator(prob, alloc)
	if err != nil {
		return 0, err
	}
	return e.Objective(), nil
}

// BruteForceOptimal enumerates all n^m allocations and returns the best
// one — tractable only for tiny problems, used by the Fig. 8
// distance-to-optimal analysis and by tests.
func BruteForceOptimal(prob *Problem) (Allocation, float64, error) {
	if err := prob.Validate(); err != nil {
		return nil, 0, err
	}
	m, n := prob.NumThreads(), prob.NumCores()
	total := 1
	for i := 0; i < m; i++ {
		total *= n
		if total > 20_000_000 {
			return nil, 0, fmt.Errorf("core: brute force infeasible for n=%d m=%d", n, m)
		}
	}
	best := make(Allocation, m)
	cur := make(Allocation, m)
	bestScore := -1.0
enumerate:
	for idx := 0; idx < total; idx++ {
		x := idx
		for i := 0; i < m; i++ {
			cur[i] = arch.CoreID(x % n)
			if !prob.AllowedOn(i, int(cur[i])) {
				continue enumerate
			}
			x /= n
		}
		score, err := EvaluateAllocation(prob, cur)
		if err != nil {
			return nil, 0, err
		}
		if score > bestScore {
			bestScore = score
			copy(best, cur)
		}
	}
	return best, bestScore, nil
}
