// Package hunt is the adversarial scenario search: a seeded
// evolutionary loop that mutates scenario genomes — synthetic workload
// shape, fault plans, arrival processes, fleet geometry — hunting for
// counterexamples to the claims the rest of the repository verifies by
// replication. A counterexample is a concrete, reproducible scenario
// where SmartBalance loses energy efficiency to a baseline, an SLO
// breaks, an anomaly trigger fires, or parallel execution diverges
// from serial. Found counterexamples are shrunk by a deterministic
// delta-debugging minimizer and pinned into a JSON corpus that the
// test suite replays forever after (TestCheckedInCorpusStillViolates).
//
// Determinism contract (DESIGN.md §14): the entire hunt — mutation
// sequence, evaluation results, minimization trace, corpus bytes — is
// a pure function of the hunt seed. Candidate evaluations fan out
// through the sweep engine, which returns results in canonical order
// for any worker count, and every random draw happens serially in the
// generation loop, so `sbhunt -seed N -workers K` writes byte-identical
// logs and corpora for every K.
package hunt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"smartbalance/internal/contention"
	"smartbalance/internal/fault"
	"smartbalance/internal/fleet"
	"smartbalance/internal/workload"
)

// Tier names: the two simulation tiers a candidate can target.
const (
	TierNode  = "node"  // one MPSoC, intra-node balancing (internal/core)
	TierFleet = "fleet" // many nodes, dispatch policies (internal/fleet)
)

// Candidate is one point in the search space: exactly one tier genome.
type Candidate struct {
	Tier  string       `json:"tier"`
	Node  *NodeGenome  `json:"node,omitempty"`
	Fleet *FleetGenome `json:"fleet,omitempty"`
}

// NodeGenome describes a node-tier scenario: a synthetic workload on
// one platform under an optional fault plan, always balanced by
// SmartBalance and compared against the baselines.
type NodeGenome struct {
	// Platform is "quad" or "biglittle". The search stays on the two
	// canned platforms: GTS — the strongest baseline — requires exactly
	// two core types, and scaling:<n> platforms would silently drop it
	// from the comparison.
	Platform   string             `json:"platform"`
	Threads    int                `json:"threads"`
	DurationMs int64              `json:"duration_ms"`
	Seed       uint64             `json:"seed"`
	Synth      workload.SynthSpec `json:"synth"`
	Fault      fault.Plan         `json:"fault"`
	// Contention is a shared-resource model spec
	// (contention.ParseSpec); empty hunts the uncontended machine.
	// When enabled, the candidate additionally pits the
	// contention-aware controller against its "-blind" twin (the
	// contention-loss objective). omitempty keeps pre-axis corpus
	// entries' keys — and hashes — byte-stable.
	Contention string `json:"contention,omitempty"`
}

// FleetGenome describes a fleet-tier scenario: node count, per-node
// platform profile, dispatch policy, and the arrival process.
type FleetGenome struct {
	Nodes      int               `json:"nodes"`
	Profile    string            `json:"profile"`
	Policy     string            `json:"policy"`
	Arrival    fleet.ArrivalSpec `json:"arrival"`
	Seed       uint64            `json:"seed"`
	DurationMs int64             `json:"duration_ms"`
}

// Validate checks the genome against the simulator domains, so every
// mutation lands on a runnable scenario instead of an error-valued
// evaluation.
func (c Candidate) Validate() error {
	switch c.Tier {
	case TierNode:
		if c.Node == nil || c.Fleet != nil {
			return fmt.Errorf("hunt: node-tier candidate with genomes node=%v fleet=%v", c.Node != nil, c.Fleet != nil)
		}
		return c.Node.validate()
	case TierFleet:
		if c.Fleet == nil || c.Node != nil {
			return fmt.Errorf("hunt: fleet-tier candidate with genomes node=%v fleet=%v", c.Node != nil, c.Fleet != nil)
		}
		return c.Fleet.validate()
	}
	return fmt.Errorf("hunt: unknown tier %q", c.Tier)
}

func (n *NodeGenome) validate() error {
	switch {
	case n.Platform != "quad" && n.Platform != "biglittle":
		return fmt.Errorf("hunt: node platform %q (quad | biglittle)", n.Platform)
	case n.Threads < 1 || n.Threads > 8:
		return fmt.Errorf("hunt: node threads %d outside [1,8]", n.Threads)
	case n.DurationMs < 50 || n.DurationMs > 400:
		return fmt.Errorf("hunt: node duration %dms outside [50,400]", n.DurationMs)
	}
	if err := n.Synth.Validate(); err != nil {
		return err
	}
	if _, err := contention.ParseSpec(n.Contention); err != nil {
		return err
	}
	return n.Fault.Validate()
}

func (f *FleetGenome) validate() error {
	a := f.Arrival
	switch {
	case f.Nodes < 2 || f.Nodes > 12:
		return fmt.Errorf("hunt: fleet nodes %d outside [2,12]", f.Nodes)
	case f.Profile != "quad" && f.Profile != "biglittle" && f.Profile != "quad,biglittle":
		return fmt.Errorf("hunt: fleet profile %q", f.Profile)
	case f.DurationMs < 100 || f.DurationMs > 600:
		return fmt.Errorf("hunt: fleet duration %dms outside [100,600]", f.DurationMs)
	// The arrival's search domain, the bounds mutation clamps into; the
	// fleet's own domain is Arrival.Validate's below.
	case a.Rate < 20 || a.Rate > 2000:
		return fmt.Errorf("hunt: arrival rate %v outside [20,2000]", a.Rate)
	case a.Kind == "diurnal" && a.Depth > 0.95:
		return fmt.Errorf("hunt: diurnal depth %v outside [0,0.95]", a.Depth)
	case a.Kind == "diurnal" && (a.PeriodMs < 50 || a.PeriodMs > 5000):
		return fmt.Errorf("hunt: diurnal period %v outside [50,5000]ms", a.PeriodMs)
	case a.Kind == "bursty" && (a.Burst < 1.5 || a.Burst > 20):
		return fmt.Errorf("hunt: burst factor %v outside [1.5,20]", a.Burst)
	}
	if _, err := fleet.ParsePolicy(f.Policy); err != nil {
		return err
	}
	return a.Validate()
}

// Key is the candidate's canonical identity: its JSON encoding.
// encoding/json renders struct fields in declaration order, so equal
// candidates always produce equal keys.
func (c Candidate) Key() string {
	b, err := json.Marshal(c)
	if err != nil {
		// Only unrepresentable values (NaN) can land here; genomes are
		// validated finite before use.
		return "unencodable:" + err.Error()
	}
	return string(b)
}

// Hash is the first 8 hex bytes of the candidate key's SHA-256 — the
// short name corpus files embed.
func (c Candidate) Hash() string {
	sum := sha256.Sum256([]byte(c.Key()))
	return hex.EncodeToString(sum[:4])
}
