package hunt

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"smartbalance/internal/param"
	"smartbalance/internal/rng"
	"smartbalance/internal/sweep"
)

// huntSeedTag decorrelates the hunt's mutation stream from every other
// consumer of the same user-facing seed (kernel, arrival, fault
// streams all derive with their own tags).
const huntSeedTag = 0x4B1D_5EEC_A57E

// Config tunes one hunt.
type Config struct {
	// Seed drives the entire search; equal seeds replay equal hunts.
	Seed uint64
	// Generations and Population size the evolutionary loop.
	Generations int
	// Population is the number of candidates per generation.
	Population int
	// Workers bounds the evaluation pool (sweep engine workers). Never
	// changes any output, only wall-clock.
	Workers int
	// Cache, when non-nil, serves and stores candidate evaluations.
	Cache *sweep.Cache
	// SLO are the fleet-tier service-level objectives.
	SLO SLO
	// Margin is the relative tolerance on the comparative objectives
	// (ee-loss, policy-loss): a loss smaller than this is noise, not a
	// counterexample.
	Margin float64
	// Tiers restricts the search ("node", "fleet"); empty hunts both.
	Tiers []string
	// Log receives the canonical hunt log. The log is part of the
	// determinism contract: byte-identical across runs with equal
	// seeds, for any Workers. Nil discards it.
	Log io.Writer
}

// withDefaults resolves zero-valued fields.
func (c Config) withDefaults() Config {
	if c.Generations <= 0 {
		c.Generations = 4
	}
	if c.Population <= 0 {
		c.Population = 12
	}
	if c.SLO.P99Ms <= 0 {
		c.SLO.P99Ms = DefaultSLO().P99Ms
	}
	if c.SLO.JPR <= 0 {
		c.SLO.JPR = DefaultSLO().JPR
	}
	if c.Margin <= 0 {
		c.Margin = 0.02
	}
	if len(c.Tiers) == 0 {
		c.Tiers = []string{TierNode, TierFleet}
	}
	return c
}

// Result is one hunt's findings.
type Result struct {
	// Counterexamples holds the minimized corpus entries, sorted by
	// name — at most one per objective.
	Counterexamples []Entry
	// Evaluated counts candidate evaluations across the generation
	// loop (minimizer evaluations excluded).
	Evaluated int
}

// Run executes one hunt: seed a population, evolve it against the
// falsification objectives, minimize the best violation per objective,
// and return the corpus entries.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	for _, t := range cfg.Tiers {
		if t != TierNode && t != TierFleet {
			return nil, fmt.Errorf("hunt: unknown tier %q (node | fleet)", t)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"slo-p99", cfg.SLO.P99Ms}, {"slo-jpr", cfg.SLO.JPR}, {"margin", cfg.Margin}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("hunt: %s %g is not finite", f.name, f.v)
		}
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	logf("hunt seed=%d gens=%d pop=%d tiers=%s slo-p99=%s slo-jpr=%s margin=%s",
		cfg.Seed, cfg.Generations, cfg.Population, strings.Join(cfg.Tiers, ","),
		param.Float(cfg.SLO.P99Ms), param.Float(cfg.SLO.JPR), param.Float(cfg.Margin))

	e := &Evaluator{SLO: cfg.SLO, Margin: cfg.Margin, Cache: cfg.Cache, Workers: cfg.Workers}
	r := rng.New(cfg.Seed ^ huntSeedTag)
	pop := seedPopulation(r, cfg.Population, cfg.Tiers)

	// best tracks the highest-scoring violating candidate per objective.
	type found struct {
		cand Candidate
		v    Violation
	}
	best := map[string]found{}
	res := &Result{}

	for gen := 0; gen < cfg.Generations; gen++ {
		evals := e.EvaluateAll(pop)
		res.Evaluated += len(evals)
		violations := 0
		for i, ev := range evals {
			if ev.Err != nil {
				logf("gen=%d cand=%d tier=%s err=%v", gen, i, ev.Cand.Tier, ev.Err)
				continue
			}
			top := ev.Violations[0]
			for _, v := range ev.Violations[1:] {
				if v.Score > top.Score {
					top = v
				}
			}
			logf("gen=%d cand=%d tier=%s fit=%s top=%s(%s) key=%s",
				gen, i, ev.Cand.Tier, param.Float(ev.Fitness), top.Objective, top.Detail, ev.Cand.Key())
			for _, v := range ev.Violations {
				if v.Score < 0 {
					continue
				}
				violations++
				if b, ok := best[v.Objective]; !ok || v.Score > b.v.Score {
					best[v.Objective] = found{cand: ev.Cand, v: v}
				}
			}
		}
		logf("gen=%d violations=%d objectives-hit=%d", gen, violations, len(best))
		if gen == cfg.Generations-1 {
			break
		}
		pop = nextGeneration(r, pop, evals, cfg.Population, cfg.Tiers)
	}

	for _, obj := range Objectives {
		b, ok := best[obj]
		if !ok {
			continue
		}
		m := Minimize(e, b.cand, obj)
		if m.Violation.Objective != obj {
			// The found candidate stopped reproducing under the
			// minimizer's re-check; record nothing rather than an
			// unverified entry.
			logf("minimize obj=%s dropped: no longer reproduces", obj)
			continue
		}
		logf("minimize obj=%s evals=%d steps=%d score=%s key=%s",
			obj, m.Evals, m.Steps, param.Float(m.Violation.Score), m.Cand.Key())
		res.Counterexamples = append(res.Counterexamples, NewEntry(m, cfg.SLO, cfg.Margin))
	}
	sort.Slice(res.Counterexamples, func(i, j int) bool {
		return res.Counterexamples[i].Name() < res.Counterexamples[j].Name()
	})
	logf("hunt done evaluated=%d counterexamples=%d", res.Evaluated, len(res.Counterexamples))
	return res, nil
}

// nextGeneration keeps an elite quarter and fills the rest with
// mutations of the elites, drawn serially from the hunt stream after
// all evaluation completed, so parallel evaluation cannot reorder the
// draws. Elitism is stratified per tier: tiers score on different
// objective scales (a fleet p99 overshoot dwarfs a node efficiency
// loss), and unstratified selection lets one tier's scale take over
// the population and blind the hunt to the other tier's objectives.
// Within a tier the order is fitness-descending, ties to the earlier
// candidate — stable and deterministic.
func nextGeneration(r *rng.Rand, pop []Candidate, evals []Evaluation, size int, tiers []string) []Candidate {
	var elites []int
	for _, tier := range tiers {
		var order []int
		for i := range evals {
			if evals[i].Cand.Tier == tier {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			return evals[order[a]].Fitness > evals[order[b]].Fitness
		})
		quota := size / (4 * len(tiers))
		if quota < 2 {
			quota = 2
		}
		if quota > len(order) {
			quota = len(order)
		}
		elites = append(elites, order[:quota]...)
	}
	next := make([]Candidate, 0, size)
	for _, i := range elites {
		if len(next) < size {
			next = append(next, pop[i])
		}
	}
	for i := 0; len(next) < size; i++ {
		next = append(next, Mutate(r, pop[elites[i%len(elites)]]))
	}
	return next
}
