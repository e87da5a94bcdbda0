package core

import (
	"errors"
	"fmt"
	"math"

	"smartbalance/internal/arch"
	"smartbalance/internal/fixedpt"
	"smartbalance/internal/rng"
)

// AnnealConfig carries the tunable input parameters of Algorithm 1:
// "Max. no. of iterations Opt_max_iter, perturbation schedule
// Opt_Δperturb, solution acceptance rate Opt_Δaccept, initial
// perturbation Opt_perturb and acceptance rate Opt_accept."
type AnnealConfig struct {
	MaxIter      int
	Perturb      float64 // initial perturbation magnitude (0,1]
	DeltaPerturb float64 // multiplicative perturbation decay per iteration
	Accept       float64 // initial acceptance temperature, relative to |J0|
	DeltaAccept  float64 // multiplicative acceptance decay per iteration
	// SwapFraction is the probability a move swaps two threads' cores
	// instead of reassigning one thread; swaps preserve per-core counts
	// while reassignments explore different occupancies.
	SwapFraction float64
	// UseFloat switches to a floating-point Metropolis rule instead of
	// the paper's fixed-point rand/e^x implementation (ablation knob).
	UseFloat bool
	// Seed drives the optimiser's deterministic randi() stream.
	Seed uint64
}

// DefaultAnnealConfig returns the Fig. 8(b)-style parameter set used by
// the experiments.
func DefaultAnnealConfig() AnnealConfig {
	return AnnealConfig{
		MaxIter:      512,
		Perturb:      1.0,
		DeltaPerturb: 0.995,
		Accept:       0.10,
		DeltaAccept:  0.99,
		SwapFraction: 0.5,
		Seed:         1,
	}
}

// Validation sentinels, predeclared so the per-epoch Validate call
// constructs nothing (hot-path purity contract).
var (
	errAnnealMaxIter      = errors.New("core: anneal MaxIter < 1")
	errAnnealPerturb      = errors.New("core: anneal Perturb outside (0,1]")
	errAnnealDeltaPerturb = errors.New("core: anneal DeltaPerturb outside (0,1]")
	errAnnealAccept       = errors.New("core: anneal Accept must be positive")
	errAnnealDeltaAccept  = errors.New("core: anneal DeltaAccept outside (0,1]")
	errAnnealSwapFraction = errors.New("core: anneal SwapFraction outside [0,1]")
)

// Validate checks parameter domains.
func (c *AnnealConfig) Validate() error {
	switch {
	case c.MaxIter < 1:
		return errAnnealMaxIter
	case c.Perturb <= 0 || c.Perturb > 1:
		return errAnnealPerturb
	case c.DeltaPerturb <= 0 || c.DeltaPerturb > 1:
		return errAnnealDeltaPerturb
	case c.Accept <= 0:
		return errAnnealAccept
	case c.DeltaAccept <= 0 || c.DeltaAccept > 1:
		return errAnnealDeltaAccept
	case c.SwapFraction < 0 || c.SwapFraction > 1:
		return errAnnealSwapFraction
	}
	return nil
}

// AnnealResult reports the optimisation outcome.
type AnnealResult struct {
	Allocation Allocation
	Objective  float64
	// Initial is the objective of the starting allocation before any
	// moves — the incumbent score. Callers that want plan-acceptance
	// hysteresis compare Objective against it without re-evaluating.
	Initial float64
	// Iterations actually executed, and proposals accepted. Accepted
	// also counts swaps of two threads on one core, which change
	// nothing but pass the acceptance rule (on node-quad about half of
	// the accepts); telemetry's accepted attribute reports this count.
	Iterations int
	Accepted   int
}

// Annealer is a reusable Algorithm 1 runner: it owns the incremental
// evaluator, the best-allocation buffer, the result record, and the
// deterministic generator, all of which are reused across Run calls so
// a controller invoking it once per epoch allocates nothing in steady
// state (DESIGN.md §11).
type Annealer struct {
	eval Evaluator
	best Allocation
	res  AnnealResult
	r    rng.Rand
}

// Anneal runs Algorithm 1: simulated annealing over allocations with
// the incremental objective evaluator, a perturbation magnitude that
// shrinks the move neighbourhood as the schedule cools, and the
// fixed-point Metropolis acceptance rule
//
//	probability = e^(-diff/accept); accept if randi() mod 1/probability == 0
//
// using the custom fixed-point rand and e^x implementations.
//
// This convenience form allocates a fresh Annealer and copies the
// winning allocation out; per-epoch callers hold an Annealer and use
// Run directly.
func Anneal(prob *Problem, initial Allocation, cfg AnnealConfig) (*AnnealResult, error) {
	var a Annealer
	res, err := a.Run(prob, initial, cfg)
	if err != nil {
		return nil, err
	}
	out := *res
	out.Allocation = res.Allocation.Clone()
	return &out, nil
}

// Run executes Algorithm 1 over the annealer's reused state. The
// returned result — including its Allocation — aliases annealer-owned
// buffers and stays valid only until the next Run call; callers that
// retain it across epochs must Clone the allocation.
func (a *Annealer) Run(prob *Problem, initial Allocation, cfg AnnealConfig) (*AnnealResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eval := &a.eval
	if err := eval.Reset(prob, initial); err != nil {
		return nil, err
	}
	m := prob.NumThreads()
	n := prob.NumCores()
	a.r.Reseed(cfg.Seed)
	r := &a.r

	// The acceptance temperature is scaled to the objective magnitude so
	// one parameter set works across problem sizes.
	scale := math.Abs(eval.Objective())
	if scale < 1e-6 {
		scale = 1e-6
	}
	accept := cfg.Accept * scale
	perturb := cfg.Perturb

	a.best = grow(a.best, len(eval.alloc))
	copy(a.best, eval.alloc)
	bestScore := eval.Objective()
	a.res = AnnealResult{Initial: bestScore}
	res := &a.res

	for iter := 0; iter < cfg.MaxIter; iter++ {
		res.Iterations++
		// The candidate move is carried in plain locals and applied in an
		// explicit branch — a closure here would allocate every iteration.
		var diff float64
		isSwap := false
		var mvI, mvJ int
		var mvDst arch.CoreID
		if m >= 2 && r.Float64() < cfg.SwapFraction {
			i := r.Intn(m)
			j := r.Intn(m)
			if i == j {
				if j++; j == m {
					j = 0
				}
			}
			// A swap must respect both threads' affinity masks.
			if !prob.AllowedOn(i, int(eval.alloc[j])) || !prob.AllowedOn(j, int(eval.alloc[i])) {
				perturb *= cfg.DeltaPerturb
				accept *= cfg.DeltaAccept
				continue
			}
			// Two threads on one core: SwapDelta and Swap would return 0
			// and change nothing, and a zero diff passes both rules, the
			// float one after its draw (Exp(0) = 1), the fixed-point one
			// without (FromFloat(-0) is 0, ExpNeg(0) is One). Keep the
			// draw and the count; skip the scoring.
			if eval.alloc[i] == eval.alloc[j] {
				if accept > 0 {
					if cfg.UseFloat {
						r.Float64()
					}
					res.Accepted++
				}
				perturb *= cfg.DeltaPerturb
				accept *= cfg.DeltaAccept
				continue
			}
			diff = eval.SwapDelta(i, j)
			isSwap, mvI, mvJ = true, i, j
		} else {
			// The perturbation magnitude bounds how far the new core
			// index may land from the current one (Algorithm 1's
			// pos_new = pos + sqrt(perturb)*randi(...)).
			span := int(math.Sqrt(perturb)*float64(n)) + 1
			if span > n {
				span = n
			}
			i := r.Intn(m)
			cur := int(eval.alloc[i])
			// |off| <= span <= n, so one compare-and-adjust wraps dst into
			// [0, n) without a division.
			dst := cur + r.IntRange(-span, span+1)
			if dst < 0 {
				dst += n
			} else if dst >= n {
				dst -= n
			}
			if dst == cur {
				if dst++; dst == n {
					dst = 0
				}
			}
			if !prob.AllowedOn(i, dst) {
				// Scan forward for the nearest allowed core; give up on
				// this iteration if the thread is fully pinned.
				found := false
				for step := 1; step < n; step++ {
					cand := dst + step
					if cand >= n {
						cand -= n
					}
					if cand != cur && prob.AllowedOn(i, cand) {
						dst, found = cand, true
						break
					}
				}
				if !found {
					perturb *= cfg.DeltaPerturb
					accept *= cfg.DeltaAccept
					continue
				}
			}
			diff = eval.MoveDelta(i, arch.CoreID(dst))
			mvI, mvDst = i, arch.CoreID(dst)
		}

		take := false
		if diff > 0 {
			take = true // always accept an improvement
		} else if accept > 0 {
			if cfg.UseFloat {
				take = r.Float64() < math.Exp(diff/accept)
			} else {
				take = fixedPointAccept(diff, accept, r)
			}
		}
		if take {
			if isSwap {
				eval.Swap(mvI, mvJ)
			} else {
				eval.Move(mvI, mvDst)
			}
			res.Accepted++
			if s := eval.Objective(); s > bestScore {
				bestScore = s
				copy(a.best, eval.alloc)
			}
		}
		perturb *= cfg.DeltaPerturb
		accept *= cfg.DeltaAccept
	}
	res.Allocation = a.best
	res.Objective = bestScore
	return res, nil
}

// fixedPointAccept implements the paper's acceptance rule with the
// custom fixed-point e^x: prob = e^(-|diff|/accept) in Q16.16, accepted
// when randi() mod floor(1/prob) == 0. The floor truncates: every prob
// above one half accepts without a draw, and prob of 1 or 2 (in 65536),
// whose fixed-point reciprocal saturates at MaxQ, uses 32767.
func fixedPointAccept(diff, accept float64, r *rng.Rand) bool {
	x := fixedpt.FromFloat(-diff / accept) // diff <= 0, so x >= 0
	prob := fixedpt.ExpNeg(x)
	if prob <= 0 {
		return false
	}
	if prob >= fixedpt.One {
		return true
	}
	inv := uint32(fixedpt.Div(fixedpt.One, prob).Float())
	if inv <= 1 {
		return true
	}
	return r.Uint32()%inv == 0
}

// GreedyInitial builds a sensible starting allocation: threads in
// descending utilisation order are placed on the core with the best
// marginal objective gain. Used when the previous epoch's allocation is
// unavailable.
func GreedyInitial(prob *Problem) (Allocation, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	m, n := prob.NumThreads(), prob.NumCores()
	alloc := make(Allocation, m)
	// Start everything on core 0, then greedily relocate.
	eval, err := NewEvaluator(prob, alloc)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		bestCore := eval.alloc[i]
		bestDelta := 0.0
		if !prob.AllowedOn(i, int(bestCore)) {
			bestDelta = math.Inf(-1) // must move somewhere allowed
		}
		for j := 0; j < n; j++ {
			if !prob.AllowedOn(i, j) {
				continue
			}
			if d := eval.MoveDelta(i, arch.CoreID(j)); d > bestDelta {
				bestDelta = d
				bestCore = arch.CoreID(j)
			}
		}
		if bestCore != eval.alloc[i] {
			eval.Move(i, bestCore)
		}
	}
	return eval.Allocation(), nil
}

// ScaledMaxIter returns the iteration budget used for a platform scale,
// matching the paper's Fig. 8(a) strategy: "for larger configurations
// we limit the number of iterations to avoid excessive overhead,
// therefore trading off solution quality for scalability."
func ScaledMaxIter(nCores, nThreads int) int {
	iter := 64 * nCores * intLog2(nThreads+1)
	switch {
	case iter < 256:
		return 256
	case iter > 4096:
		return 4096
	default:
		return iter
	}
}

// epochAnneal returns the optimiser config for one balancing epoch:
// c with its seed mixed with the epoch index and, when MaxIter <= 0,
// the Fig. 8(a) budget ScaledMaxIter(nCores, nThreads). Every other
// field is the caller's. The balancer constructors validate
// epochAnneal(c, 1, 1, 0), so MaxIter <= 0 defers only the budget.
func epochAnneal(c AnnealConfig, nCores, nThreads, epoch int) AnnealConfig {
	if c.MaxIter <= 0 {
		c.MaxIter = ScaledMaxIter(nCores, nThreads)
	}
	c.Seed ^= uint64(epoch) * 0x9E3779B97F4A7C15
	return c
}

func intLog2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	if n == 0 {
		return 1
	}
	return n
}

// String renders the config compactly for experiment logs.
func (c AnnealConfig) String() string {
	mode := "fixed-point"
	if c.UseFloat {
		mode = "float"
	}
	return fmt.Sprintf("iters=%d perturb=%.2fxΔ%.3f accept=%.2fxΔ%.3f swap=%.2f %s",
		c.MaxIter, c.Perturb, c.DeltaPerturb, c.Accept, c.DeltaAccept, c.SwapFraction, mode)
}
