package hunt

import (
	"strconv"

	"smartbalance/internal/fleet"
	"smartbalance/internal/rng"
	"smartbalance/internal/workload"
)

// Mutation: small deterministic perturbations of one genome axis. Every
// operator receives the hunt's single mutation stream and must draw
// from it the same way regardless of platform or prior results, so one
// seed replays one mutation sequence exactly (the §14 contract). All
// operators land inside the genome domains by construction — Validate
// after mutation is a sanity check, not a rejection-sampling loop.

// roundSig rounds v to 4 significant digits via the decimal formatter,
// keeping mutated parameters readable in specs and corpus files while
// staying a pure function of v.
func roundSig(v float64) float64 {
	r, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	if err != nil {
		return v
	}
	return r
}

// clamp limits v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// scale multiplies v by a factor drawn from [0.5, 2] (log-uniform-ish:
// half the mass shrinks, half grows) and clamps into [lo, hi]. The
// clamp comes after the rounding: rounding 65536 to 4 significant
// digits lands on 65540, outside the domain it was clamped into.
func scale(r *rng.Rand, v, lo, hi float64) float64 {
	f := 0.5 + 1.5*r.Float64()
	return clamp(roundSig(v*f), lo, hi)
}

// nudge adds a uniform draw from [-amt, amt] and clamps into [lo, hi].
func nudge(r *rng.Rand, v, amt, lo, hi float64) float64 {
	return clamp(roundSig(v+amt*(2*r.Float64()-1)), lo, hi)
}

// stepInt moves v by ±1..2 and clamps into [lo, hi].
func stepInt(r *rng.Rand, v, lo, hi int) int {
	d := 1 + r.Intn(2)
	if r.Intn(2) == 0 {
		d = -d
	}
	v += d
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Mutate returns a mutated copy of c, applying one or two operators
// drawn from the tier's fixed table.
func Mutate(r *rng.Rand, c Candidate) Candidate {
	out := clone(c)
	ops := 1 + r.Intn(2)
	for i := 0; i < ops; i++ {
		switch out.Tier {
		case TierNode:
			mutateNode(r, out.Node)
		case TierFleet:
			mutateFleet(r, out.Fleet)
		}
	}
	return out
}

// clone deep-copies a candidate so mutation never aliases the parent.
func clone(c Candidate) Candidate {
	out := c
	if c.Node != nil {
		n := *c.Node
		out.Node = &n
	}
	if c.Fleet != nil {
		f := *c.Fleet
		out.Fleet = &f
	}
	return out
}

func mutateNode(r *rng.Rand, n *NodeGenome) {
	switch r.Intn(18) {
	case 0:
		if n.Platform == "quad" {
			n.Platform = "biglittle"
		} else {
			n.Platform = "quad"
		}
	case 1:
		n.Threads = stepInt(r, n.Threads, 1, 8)
	case 2:
		n.DurationMs = int64(stepInt(r, int(n.DurationMs/50), 1, 8)) * 50
	case 3:
		n.Seed = r.Uint64()
	case 4:
		n.Synth.Phases = stepInt(r, n.Synth.Phases, 1, 8)
	case 5:
		n.Synth.InsM = scale(r, n.Synth.InsM, 1, 500)
	case 6:
		n.Synth.ILP = scale(r, n.Synth.ILP, 0.5, 8)
	case 7:
		n.Synth.Mem = nudge(r, n.Synth.Mem, 0.15, 0, 0.6)
	case 8:
		n.Synth.Bsh = nudge(r, n.Synth.Bsh, 0.08, 0, 0.25)
	case 9:
		n.Synth.WsIKB = scale(r, n.Synth.WsIKB, 1, 1024)
	case 10:
		n.Synth.WsDKB = scale(r, n.Synth.WsDKB, 1, 65536)
	case 11:
		n.Synth.Ent = nudge(r, n.Synth.Ent, 0.25, 0, 1)
	case 12:
		n.Synth.MLP = scale(r, n.Synth.MLP, 1, 8)
	case 13:
		n.Synth.SleepM = nudge(r, n.Synth.SleepM, 8, 0, 50)
	case 14, 15:
		// Fault-plan tweaks get double weight: sensing imperfection is
		// where the paper's claims are most fragile (Hofmann et al.),
		// so the search should probe it often.
		mutateFault(r, n)
	case 16:
		// Shared-resource model toggle: contended genomes additionally
		// race the aware controller against its blind twin.
		if n.Contention == "" {
			n.Contention = "on"
		} else {
			n.Contention = ""
		}
	case 17:
		n.Synth.Ant = r.Intn(3)
	}
}

// mutateFault perturbs one rate of the node genome's fault plan and
// renormalises through fault.Clamped so the plan stays valid.
func mutateFault(r *rng.Rand, n *NodeGenome) {
	p := n.Fault
	// Biased upward: faults start at zero and the interesting regimes
	// have them on.
	d := func(v float64) float64 { return roundSig(clamp(v+0.35*r.Float64()-0.1, 0, 1)) }
	switch r.Intn(6) {
	case 0:
		p.DropRate = d(p.DropRate)
	case 1:
		p.StaleRate = d(p.StaleRate)
	case 2:
		p.CorruptRate = d(p.CorruptRate)
	case 3:
		p.PowerDropRate = d(p.PowerDropRate)
	case 4:
		p.PowerSpikeRate = d(p.PowerSpikeRate)
	case 5:
		p.MigrateFailRate = d(p.MigrateFailRate)
	}
	n.Fault = p.Clamped()
}

func mutateFleet(r *rng.Rand, f *FleetGenome) {
	switch r.Intn(10) {
	case 0:
		f.Nodes = stepInt(r, f.Nodes, 2, 12)
	case 1:
		profiles := []string{"quad", "biglittle", "quad,biglittle"}
		f.Profile = profiles[r.Intn(len(profiles))]
	case 2:
		policies := []string{"energy", "least", "rr"}
		f.Policy = policies[r.Intn(len(policies))]
	case 3:
		f.Seed = r.Uint64()
	case 4:
		f.DurationMs = int64(stepInt(r, int(f.DurationMs/100), 1, 6)) * 100
	case 5:
		// Arrival kind flip, carrying the rate and refreshing the
		// kind-specific parameters to canonical midpoints.
		kinds := []string{"uniform", "diurnal", "bursty"}
		f.Arrival = defaultArrival(kinds[r.Intn(len(kinds))], f.Arrival.Rate)
	case 6:
		f.Arrival.Rate = scale(r, f.Arrival.Rate, 20, 2000)
	case 7:
		switch f.Arrival.Kind {
		case "diurnal":
			f.Arrival.Depth = nudge(r, f.Arrival.Depth, 0.25, 0, 0.95)
		case "bursty":
			f.Arrival.Burst = scale(r, f.Arrival.Burst, 1.5, 20)
		default:
			f.Arrival.Rate = scale(r, f.Arrival.Rate, 20, 2000)
		}
	case 8:
		switch f.Arrival.Kind {
		case "diurnal":
			f.Arrival.PeriodMs = scale(r, f.Arrival.PeriodMs, 50, 5000)
		case "bursty":
			f.Arrival.PBurst = nudge(r, f.Arrival.PBurst, 0.1, 0.01, 1)
		default:
			f.Arrival.Rate = scale(r, f.Arrival.Rate, 20, 2000)
		}
	case 9:
		if f.Arrival.Kind == "bursty" {
			f.Arrival.PCalm = nudge(r, f.Arrival.PCalm, 0.15, 0.01, 1)
		} else {
			f.Nodes = stepInt(r, f.Nodes, 2, 12)
		}
	}
}

// defaultArrival is kind's default arrival spec at the given rate.
func defaultArrival(kind string, rate float64) fleet.ArrivalSpec {
	a := fleet.DefaultArrival(kind)
	a.Rate = rate
	return a
}

// seedPopulation builds the deterministic initial population: the two
// tier base genomes, diversified by an increasing number of mutations.
func seedPopulation(r *rng.Rand, size int, tiers []string) []Candidate {
	bases := make([]Candidate, 0, 2)
	for _, tier := range tiers {
		switch tier {
		case TierNode:
			bases = append(bases, Candidate{Tier: TierNode, Node: &NodeGenome{
				Platform:   "biglittle",
				Threads:    4,
				DurationMs: 100,
				Seed:       1,
				Synth:      workload.DefaultSynth(),
			}})
		case TierFleet:
			bases = append(bases, Candidate{Tier: TierFleet, Fleet: &FleetGenome{
				Nodes:      6,
				Profile:    "quad,biglittle",
				Policy:     "energy",
				Arrival:    defaultArrival("bursty", 300),
				Seed:       1,
				DurationMs: 300,
			}})
		}
	}
	pop := make([]Candidate, 0, size)
	for i := 0; len(pop) < size; i++ {
		c := clone(bases[i%len(bases)])
		// Candidate i carries i/len(bases) mutations: the first few are
		// the canonical healthy scenarios, later ones wander out.
		for m := 0; m < i/len(bases); m++ {
			c = Mutate(r, c)
		}
		pop = append(pop, c)
	}
	return pop
}
