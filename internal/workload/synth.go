package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// Synthetic parametric benchmarks: the mutable corner of the workload
// vocabulary. The named PARSEC-like profiles are fixed points chosen to
// mirror the paper's evaluation; adversarial search (internal/hunt)
// instead needs a workload whose phase structure and attributes are
// continuous knobs it can push around. A SynthSpec is that knob set —
// small enough to minimize over, expressive enough to reach the
// compute-bound, memory-bound, and phasic regimes the balancers
// disagree on.
//
// The spec grammar mirrors the arrival specs ("kind:key=val,..."):
//
//	synth:phases=2,ins=30,ilp=2.4,mem=0.3,bsh=0.12,wsi=12,wsd=256,ent=0.4,mlp=2.5,sleep=0
//
// ins is instructions per phase in millions; sleep is the sleep after
// the last phase of each cycle in milliseconds (the interactivity
// mechanism); everything else matches the Phase attribute of the same
// (abbreviated) name. Odd-indexed phases lean memory-bound — working
// sets grow and ILP drops — so phases >= 2 produces the phasic
// behaviour that stresses epoch-based balancers. An optional ant=1|2
// reshapes the spec into a steady streaming (bandwidth) or
// cache-resident (occupancy) antagonist for the contention study; it
// is omitted from canonical names when zero.

// SynthPrefix starts every synthetic workload name.
const SynthPrefix = "synth:"

// SynthSpec is a parametric synthetic benchmark description.
type SynthSpec struct {
	Phases int     `json:"phases"`
	InsM   float64 `json:"ins_m"`
	ILP    float64 `json:"ilp"`
	Mem    float64 `json:"mem"`
	Bsh    float64 `json:"bsh"`
	WsIKB  float64 `json:"wsi_kb"`
	WsDKB  float64 `json:"wsd_kb"`
	Ent    float64 `json:"ent"`
	MLP    float64 `json:"mlp"`
	SleepM float64 `json:"sleep_ms"`
	// Ant selects an antagonist profile for the contention study
	// (internal/contention): AntNone leaves the spec as-is, the other
	// values reshape every phase into a steady shared-resource
	// aggressor. Rendered in String only when non-zero, so the knob
	// changes no pre-existing canonical name.
	Ant int `json:"ant,omitempty"`
}

// Antagonist profiles. A streaming antagonist sweeps a working set far
// beyond any LLC at high memory share — maximal bandwidth demand, no
// reuse for co-runners to evict. A cache-resident antagonist parks a
// working set sized to an LLC slice and re-references it — maximal
// occupancy pressure at modest bandwidth.
const (
	AntNone          = 0
	AntStreaming     = 1
	AntCacheResident = 2
)

// DefaultSynth is the spec every omitted parameter falls back to — a
// middle-of-the-road mixed workload.
func DefaultSynth() SynthSpec {
	return SynthSpec{
		Phases: 2, InsM: 30, ILP: 2.4, Mem: 0.3, Bsh: 0.12,
		WsIKB: 12, WsDKB: 256, Ent: 0.4, MLP: 2.5, SleepM: 0,
	}
}

// String renders the canonical spec name: every parameter explicit, in
// fixed order, shortest-exact numbers. ParseSynth(s.String()) == s for
// every valid spec.
func (s SynthSpec) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	name := fmt.Sprintf("%sphases=%d,ins=%s,ilp=%s,mem=%s,bsh=%s,wsi=%s,wsd=%s,ent=%s,mlp=%s,sleep=%s",
		SynthPrefix, s.Phases, f(s.InsM), f(s.ILP), f(s.Mem), f(s.Bsh),
		f(s.WsIKB), f(s.WsDKB), f(s.Ent), f(s.MLP), f(s.SleepM))
	if s.Ant != AntNone {
		name += ",ant=" + strconv.Itoa(s.Ant)
	}
	return name
}

// Validate checks the spec's own domains. They are deliberately tighter
// than Phase.Validate's: Spawn jitters every attribute by up to 8%, and
// these bounds keep the jittered phases inside the model domains.
func (s SynthSpec) Validate() error {
	switch {
	case s.Phases < 1 || s.Phases > 8:
		return fmt.Errorf("workload: synth phases %d outside [1,8]", s.Phases)
	case !within(s.InsM, 1, 500):
		return fmt.Errorf("workload: synth ins %v outside [1,500] (millions)", s.InsM)
	case !within(s.ILP, 0.5, 8):
		return fmt.Errorf("workload: synth ilp %v outside [0.5,8]", s.ILP)
	case !within(s.Mem, 0, 0.6):
		return fmt.Errorf("workload: synth mem %v outside [0,0.6]", s.Mem)
	case !within(s.Bsh, 0, 0.25):
		return fmt.Errorf("workload: synth bsh %v outside [0,0.25]", s.Bsh)
	case !within(s.WsIKB, 1, 1024):
		return fmt.Errorf("workload: synth wsi %v outside [1,1024] KB", s.WsIKB)
	case !within(s.WsDKB, 1, 65536):
		return fmt.Errorf("workload: synth wsd %v outside [1,65536] KB", s.WsDKB)
	case !within(s.Ent, 0, 1):
		return fmt.Errorf("workload: synth ent %v outside [0,1]", s.Ent)
	case !within(s.MLP, 1, 8):
		return fmt.Errorf("workload: synth mlp %v outside [1,8]", s.MLP)
	case !within(s.SleepM, 0, 50):
		return fmt.Errorf("workload: synth sleep %v outside [0,50] ms", s.SleepM)
	case s.Ant < AntNone || s.Ant > AntCacheResident:
		return fmt.Errorf("workload: synth ant %d outside [0,2]", s.Ant)
	}
	return nil
}

// ParseSynth parses a "synth:..." name. Omitted parameters take the
// DefaultSynth values; unknown parameters are errors.
func ParseSynth(name string) (SynthSpec, error) {
	s := DefaultSynth()
	if !strings.HasPrefix(name, SynthPrefix) {
		return s, fmt.Errorf("workload: %q is not a synth spec (want %q prefix)", name, SynthPrefix)
	}
	params := strings.TrimPrefix(name, SynthPrefix)
	if params == "" {
		return s, s.Validate()
	}
	for _, part := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return s, fmt.Errorf("workload: synth parameter %q malformed (want key=value)", part)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return s, fmt.Errorf("workload: synth parameter %q: %v", part, err)
		}
		switch strings.TrimSpace(k) {
		case "phases":
			s.Phases = int(f)
			if float64(s.Phases) != f { //sbvet:allow floateq(integrality check on a parsed literal, not a computed value)
				return s, fmt.Errorf("workload: synth phases %v is not an integer", f)
			}
		case "ins":
			s.InsM = f
		case "ilp":
			s.ILP = f
		case "mem":
			s.Mem = f
		case "bsh":
			s.Bsh = f
		case "wsi":
			s.WsIKB = f
		case "wsd":
			s.WsDKB = f
		case "ent":
			s.Ent = f
		case "mlp":
			s.MLP = f
		case "sleep":
			s.SleepM = f
		case "ant":
			s.Ant = int(f)
			if float64(s.Ant) != f { //sbvet:allow floateq(integrality check on a parsed literal, not a computed value)
				return s, fmt.Errorf("workload: synth ant %v is not an integer", f)
			}
		default:
			return s, fmt.Errorf("workload: unknown synth parameter %q", k)
		}
	}
	return s, s.Validate()
}

// phases materialises the spec's phase cycle. Even-indexed phases carry
// the spec's attributes as given; odd-indexed phases lean memory-bound
// (bigger data working set, lower ILP, higher memory share) so
// multi-phase specs exercise the phase-tracking paths of the balancers.
// Antagonist specs (Ant != AntNone) are deliberately steady instead:
// every phase carries the aggressor profile, so their pressure on
// co-runners is constant and contention effects are attributable.
func (s SynthSpec) phases() []Phase {
	out := make([]Phase, s.Phases)
	for i := range out {
		p := Phase{
			Name:          fmt.Sprintf("synth-p%d", i),
			Instructions:  uint64(s.InsM * 1e6),
			ILP:           s.ILP,
			MemShare:      s.Mem,
			BranchShare:   s.Bsh,
			WorkingSetIKB: s.WsIKB,
			WorkingSetDKB: s.WsDKB,
			BranchEntropy: s.Ent,
			MLP:           s.MLP,
			TLBPressureI:  clampF(s.WsIKB/1024, 0, 0.8),
			TLBPressureD:  clampF(s.WsDKB/8192, 0, 0.8),
		}
		switch s.Ant {
		case AntStreaming:
			// Steady bandwidth aggressor: no phasing, every phase sweeps.
			p.ILP = clampF(p.ILP*0.8, 0.5, 8)
			p.MemShare = clampF(p.MemShare*1.5+0.25, 0, 0.6)
			p.WorkingSetDKB = clampF(p.WorkingSetDKB*32, 8192, 65536)
			p.MLP = clampF(p.MLP+2, 1, 8)
		case AntCacheResident:
			// Steady occupancy aggressor: LLC-slice-sized reuse set.
			p.MemShare = clampF(p.MemShare+0.1, 0, 0.6)
			p.WorkingSetDKB = clampF(p.WorkingSetDKB*4, 512, 8192)
		default:
			if i%2 == 1 {
				p.ILP = clampF(p.ILP*0.6, 0.5, 8)
				p.MemShare = clampF(p.MemShare*1.4+0.1, 0, 0.6)
				p.WorkingSetDKB = clampF(p.WorkingSetDKB*8, 1, 65536)
				p.MLP = clampF(p.MLP*0.8, 1, 8)
			}
		}
		if i == len(out)-1 && s.SleepM > 0 {
			p.SleepAfterNs = int64(s.SleepM * 1e6)
		}
		out[i] = p
	}
	return out
}

// Synth materialises nthreads worker threads from a synthetic spec
// name, with the same deterministic per-worker jitter as the named
// benchmarks.
func Synth(name string, nthreads int, seed uint64) ([]ThreadSpec, error) {
	s, err := ParseSynth(name)
	if err != nil {
		return nil, err
	}
	// Spawn under the canonical name so equal specs produce equal
	// thread names regardless of parameter spelling or order.
	return Spawn(s.String(), s.phases(), nthreads, seed)
}
