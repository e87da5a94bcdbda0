package hunt

import (
	"strconv"

	"smartbalance/internal/fault"
	"smartbalance/internal/workload"
)

// Delta-debugging minimizer: greedy param-by-param reduction of a
// counterexample while its violation keeps reproducing. Reductions are
// proposed from a fixed, ordered table and accepted iff the reduced
// candidate still violates the same objective, so the trace — and the
// minimized result — is a deterministic function of the input
// candidate and the evaluator configuration. The seed is never an
// axis: a counterexample is pinned at the seed that found it.
//
// Evaluations flow through the shared evaluator, so a minimization
// pass over a cached counterexample costs almost nothing: most
// reductions were already tried during the hunt or a previous pass.

// maxMinimizePasses bounds the outer fixpoint loop. Each pass walks
// every axis once; reductions monotonically shrink the genome, so a
// handful of passes reaches the fixpoint in practice and the bound
// only guards pathological oscillation.
const maxMinimizePasses = 4

// Minimized is the result of one minimization.
type Minimized struct {
	Cand      Candidate
	Violation Violation
	// Evals counts the candidate evaluations the minimizer spent.
	Evals int
	// Steps counts the accepted reductions.
	Steps int
}

// Minimize shrinks c while the named objective keeps violating.
// c must already violate obj (Score >= 0) under e's configuration.
func Minimize(e *Evaluator, c Candidate, obj string) Minimized {
	m := Minimized{Cand: clone(c)}
	check := func(cand Candidate) (Violation, bool) {
		m.Evals++
		ev := e.Evaluate(cand)
		if ev.Err != nil {
			return Violation{}, false
		}
		for _, v := range ev.Violations {
			if v.Objective == obj && v.Score >= 0 {
				return v, true
			}
		}
		return Violation{}, false
	}
	v, ok := check(m.Cand)
	if !ok {
		// The caller handed a non-reproducing candidate; return it
		// unshrunk with the zero violation so the caller can notice.
		return m
	}
	m.Violation = v
	for pass := 0; pass < maxMinimizePasses; pass++ {
		accepted := 0
		for _, propose := range axes(m.Cand) {
			for _, cand := range propose(m.Cand) {
				if cand.Key() == m.Cand.Key() {
					continue
				}
				if nv, ok := check(cand); ok {
					m.Cand = cand
					m.Violation = nv
					m.Steps++
					accepted++
					break
				}
			}
		}
		if accepted == 0 {
			break
		}
	}
	return m
}

// axis proposes reduced candidates for one genome parameter, most
// aggressive first; the minimizer accepts the first that still
// violates.
type axis func(Candidate) []Candidate

// axes returns the tier's reduction table in fixed order.
func axes(c Candidate) []axis {
	if c.Tier == TierNode {
		return nodeAxes
	}
	return fleetAxes
}

// reduceNode builds a candidate with the node genome transformed.
func reduceNode(c Candidate, f func(*NodeGenome)) Candidate {
	out := clone(c)
	f(out.Node)
	return out
}

// reduceFleet builds a candidate with the fleet genome transformed.
func reduceFleet(c Candidate, f func(*FleetGenome)) Candidate {
	out := clone(c)
	f(out.Fleet)
	return out
}

// int64Steps proposes target, then the midpoint between current and
// target — a two-probe bisection per pass; the outer fixpoint loop
// converges the rest of the way.
func int64Steps(cur, target int64) []int64 {
	if cur == target {
		return nil
	}
	mid := (cur + target) / 2
	if mid == cur || mid == target {
		return []int64{target}
	}
	return []int64{target, mid}
}

var nodeAxes = []axis{
	// 1. The whole fault plan, then each rate individually: a
	// counterexample that needs no faults is far more alarming, and a
	// single-fault plan names the sensing path at issue.
	func(c Candidate) []Candidate {
		var out []Candidate
		if !c.Node.Fault.IsZero() {
			out = append(out, reduceNode(c, func(n *NodeGenome) { n.Fault = fault.Plan{} }))
		}
		return out
	},
	func(c Candidate) []Candidate { return dropFaultRates(c) },
	// 2. Threads toward 1.
	func(c Candidate) []Candidate {
		var out []Candidate
		for _, t := range int64Steps(int64(c.Node.Threads), 1) {
			out = append(out, reduceNode(c, func(n *NodeGenome) { n.Threads = int(t) }))
		}
		return out
	},
	// 3. Duration toward the 50ms floor (in the 50ms grid).
	func(c Candidate) []Candidate {
		var out []Candidate
		for _, d := range int64Steps(c.Node.DurationMs/50, 1) {
			out = append(out, reduceNode(c, func(n *NodeGenome) { n.DurationMs = d * 50 }))
		}
		return out
	},
	// 4. Each synth parameter back to its default — the minimized
	// workload differs from the canonical one only where it must.
	func(c Candidate) []Candidate { return resetSynthFields(c) },
	// 5. Contention off entirely, then down to the bare "on" defaults.
	// Objectives that need the contended machine (contention-loss)
	// reject the first proposal and keep the second when the capacity
	// overrides were incidental.
	func(c Candidate) []Candidate {
		var out []Candidate
		if c.Node.Contention != "" {
			out = append(out, reduceNode(c, func(n *NodeGenome) { n.Contention = "" }))
			if c.Node.Contention != "on" {
				out = append(out, reduceNode(c, func(n *NodeGenome) { n.Contention = "on" }))
			}
		}
		return out
	},
	// 6. Platform to quad (the smaller platform), when the violation
	// survives losing the GTS baseline.
	func(c Candidate) []Candidate {
		if c.Node.Platform == "quad" {
			return nil
		}
		return []Candidate{reduceNode(c, func(n *NodeGenome) { n.Platform = "quad" })}
	},
}

// dropFaultRates proposes zeroing each non-zero fault rate, one at a
// time, highest field first (fixed declaration order).
func dropFaultRates(c Candidate) []Candidate {
	var out []Candidate
	p := c.Node.Fault
	zero := []struct {
		on bool
		f  func(*fault.Plan)
	}{
		{p.DropRate > 0, func(q *fault.Plan) { q.DropRate = 0 }},
		{p.StaleRate > 0, func(q *fault.Plan) { q.StaleRate = 0 }},
		{p.CorruptRate > 0, func(q *fault.Plan) { q.CorruptRate = 0 }},
		{p.PowerDropRate > 0, func(q *fault.Plan) { q.PowerDropRate = 0 }},
		{p.PowerSpikeRate > 0, func(q *fault.Plan) { q.PowerSpikeRate = 0 }},
		{p.MigrateFailRate > 0, func(q *fault.Plan) { q.MigrateFailRate = 0 }},
		{p.SpikeFactor > 0, func(q *fault.Plan) { q.SpikeFactor = 0 }},
	}
	for _, z := range zero {
		if !z.on {
			continue
		}
		out = append(out, reduceNode(c, func(n *NodeGenome) {
			q := n.Fault
			z.f(&q)
			n.Fault = q
		}))
	}
	return out
}

// resetSynthFields proposes restoring each synth parameter to its
// default, one at a time, in declaration order.
func resetSynthFields(c Candidate) []Candidate {
	def := workload.DefaultSynth()
	cur := c.Node.Synth
	var out []Candidate
	reset := []func(*workload.SynthSpec){
		func(s *workload.SynthSpec) { s.Phases = def.Phases },
		func(s *workload.SynthSpec) { s.InsM = def.InsM },
		func(s *workload.SynthSpec) { s.ILP = def.ILP },
		func(s *workload.SynthSpec) { s.Mem = def.Mem },
		func(s *workload.SynthSpec) { s.Bsh = def.Bsh },
		func(s *workload.SynthSpec) { s.WsIKB = def.WsIKB },
		func(s *workload.SynthSpec) { s.WsDKB = def.WsDKB },
		func(s *workload.SynthSpec) { s.Ent = def.Ent },
		func(s *workload.SynthSpec) { s.MLP = def.MLP },
		func(s *workload.SynthSpec) { s.SleepM = def.SleepM },
		func(s *workload.SynthSpec) { s.Ant = def.Ant },
	}
	for _, f := range reset {
		probe := cur
		f(&probe)
		if probe == cur {
			continue
		}
		fn := f
		out = append(out, reduceNode(c, func(n *NodeGenome) { fn(&n.Synth) }))
	}
	return out
}

var fleetAxes = []axis{
	// 1. Nodes toward the 2-node floor.
	func(c Candidate) []Candidate {
		var out []Candidate
		for _, n := range int64Steps(int64(c.Fleet.Nodes), 2) {
			out = append(out, reduceFleet(c, func(f *FleetGenome) { f.Nodes = int(n) }))
		}
		return out
	},
	// 2. Duration toward the 100ms floor (in the 100ms grid).
	func(c Candidate) []Candidate {
		var out []Candidate
		for _, d := range int64Steps(c.Fleet.DurationMs/100, 1) {
			out = append(out, reduceFleet(c, func(f *FleetGenome) { f.DurationMs = d * 100 }))
		}
		return out
	},
	// 3. Arrival kind toward uniform at the same rate — the simplest
	// process that still breaks the objective.
	func(c Candidate) []Candidate {
		if c.Fleet.Arrival.Kind == "uniform" {
			return nil
		}
		return []Candidate{reduceFleet(c, func(f *FleetGenome) {
			f.Arrival = defaultArrival("uniform", f.Arrival.Rate)
		})}
	},
	// 4. Profile to quad.
	func(c Candidate) []Candidate {
		if c.Fleet.Profile == "quad" {
			return nil
		}
		return []Candidate{reduceFleet(c, func(f *FleetGenome) { f.Profile = "quad" })}
	},
	// 5. Round the arrival parameters to 2 significant digits —
	// readable corpus entries beat 12-decimal mutation residue.
	func(c Candidate) []Candidate {
		rounded := reduceFleet(c, func(f *FleetGenome) {
			a := f.Arrival
			a.Rate = round2(a.Rate)
			a.Depth = round2(a.Depth)
			a.PeriodMs = round2(a.PeriodMs)
			a.Burst = round2(a.Burst)
			a.PBurst = round2(a.PBurst)
			a.PCalm = round2(a.PCalm)
			f.Arrival = a
		})
		if rounded.Fleet.Arrival == c.Fleet.Arrival {
			return nil
		}
		return []Candidate{rounded}
	},
}

// round2 rounds to 2 significant digits, the coarser sibling of
// roundSig.
func round2(v float64) float64 {
	r, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 2, 64), 64)
	if err != nil {
		return v
	}
	return r
}
