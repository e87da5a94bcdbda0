package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"smartbalance/internal/param"
	"smartbalance/internal/rng"
)

// Arrival processes: the open-loop request streams the fleet admits.
// "Open-loop" means arrivals never wait for the system — the stream
// stands in for millions of independent users, whose request times do
// not depend on how loaded the fleet is. Each process is a
// deterministic function of the fleet seed: the dispatcher draws the
// per-tick arrival counts and offsets from one seeded stream, so equal
// seeds regenerate the identical request sequence for any policy or
// worker count.
//
// The spec grammar is "kind" or "kind:key=val,key=val":
//
//	uniform:rate=400                        constant-rate Poisson
//	diurnal:rate=400,depth=0.6,period=2000  sinusoid-modulated Poisson
//	bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25
//
// diurnal's period is in simulated milliseconds (one compressed
// "day"); bursty is a two-state MMPP: a calm state at the base rate
// and a burst state at burst x the base rate, switching per tick with
// the given probabilities.

// ArrivalSpec is the one description of an arrival process, in the
// grammar's units: Rate in requests per simulated second (bursty's
// calm-state rate) and PeriodMs in simulated milliseconds, fractions
// kept as parsed so String round-trips. Parameters the kind does not
// use are zero. The adversarial hunt mutates it directly, and its JSON
// encoding keys every pinned fleet counterexample, so the tags never
// change.
type ArrivalSpec struct {
	Kind     string  `json:"kind"` // uniform | diurnal | bursty
	Rate     float64 `json:"rate"`
	Depth    float64 `json:"depth,omitempty"`
	PeriodMs float64 `json:"period_ms,omitempty"`
	Burst    float64 `json:"burst,omitempty"`
	PBurst   float64 `json:"pburst,omitempty"`
	PCalm    float64 `json:"pcalm,omitempty"`
}

// DefaultArrival returns kind's spec with every parameter at its
// default: the values a bare "kind" spec parses to. An unknown kind
// comes back with only Kind set, and fails Validate.
func DefaultArrival(kind string) ArrivalSpec {
	switch kind {
	case "uniform":
		return ArrivalSpec{Kind: kind, Rate: 400}
	case "diurnal":
		return ArrivalSpec{Kind: kind, Rate: 400, Depth: 0.6, PeriodMs: 2000}
	case "bursty":
		return ArrivalSpec{Kind: kind, Rate: 300, Burst: 6, PBurst: 0.08, PCalm: 0.25}
	}
	return ArrivalSpec{Kind: kind}
}

// ParseArrivalSpec parses "kind" or "kind:key=val,...": omitted
// parameters take DefaultArrival's values, param.Parse reads the rest,
// and a parameter the kind does not have is an error.
func ParseArrivalSpec(spec string) (ArrivalSpec, error) {
	kind, params, _ := strings.Cut(spec, ":")
	a := DefaultArrival(kind)
	keys := map[string]any{"rate": &a.Rate}
	switch kind {
	case "diurnal":
		keys["depth"], keys["period"] = &a.Depth, &a.PeriodMs
	case "bursty":
		keys["burst"], keys["pburst"], keys["pcalm"] = &a.Burst, &a.PBurst, &a.PCalm
	}
	if err := param.Parse(params, ",", keys); err != nil {
		return ArrivalSpec{}, fmt.Errorf("fleet: arrival %q: %w", spec, err)
	}
	if err := a.Validate(); err != nil {
		return ArrivalSpec{}, err
	}
	return a, nil
}

// String renders the canonical spec: the kind's parameters explicit,
// in fixed order, shortest-exact numbers. ParseArrivalSpec(a.String())
// == a for every valid spec whose unused parameters are zero.
func (a ArrivalSpec) String() string {
	f := param.Float
	switch a.Kind {
	case "uniform":
		return "uniform:rate=" + f(a.Rate)
	case "diurnal":
		return "diurnal:rate=" + f(a.Rate) + ",depth=" + f(a.Depth) + ",period=" + f(a.PeriodMs)
	case "bursty":
		return "bursty:rate=" + f(a.Rate) + ",burst=" + f(a.Burst) +
			",pburst=" + f(a.PBurst) + ",pcalm=" + f(a.PCalm)
	}
	return a.Kind
}

// Validate checks the spec against the process domains. Specs built
// as structs never pass through param.Parse, so it refuses non-finite
// parameters itself: NaN slips past every range check and an infinite
// rate never ends a draw.
func (a ArrivalSpec) Validate() error {
	for _, v := range [...]float64{a.Rate, a.Depth, a.PeriodMs, a.Burst, a.PBurst, a.PCalm} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fleet: arrival %q: parameter %v not finite", a, v)
		}
	}
	switch a.Kind {
	case "uniform":
		if a.Rate <= 0 {
			return fmt.Errorf("fleet: arrival %q: non-positive rate", a)
		}
	case "diurnal":
		if a.Rate <= 0 || a.PeriodMs <= 0 {
			return fmt.Errorf("fleet: arrival %q: non-positive rate or period", a)
		}
		if a.Depth < 0 || a.Depth >= 1 {
			return fmt.Errorf("fleet: arrival %q: depth %v outside [0,1)", a, a.Depth)
		}
	case "bursty":
		if a.Rate <= 0 || a.Burst <= 1 {
			return fmt.Errorf("fleet: arrival %q: need rate > 0 and burst > 1", a)
		}
		if a.PBurst <= 0 || a.PBurst > 1 || a.PCalm <= 0 || a.PCalm > 1 {
			return fmt.Errorf("fleet: arrival %q: switching probabilities outside (0,1]", a)
		}
	default:
		return fmt.Errorf("fleet: unknown arrival kind %q (uniform | diurnal | bursty)", a.Kind)
	}
	return nil
}

// Arrival is one running open-loop arrival process. It is stateful
// (the bursty MMPP remembers its phase) and not safe for concurrent
// use; the fleet drives it from its serial dispatch section only.
type Arrival struct {
	spec ArrivalSpec
	// r and inBurst are the bursty process's state chain: it draws
	// from its own split of the fleet arrival stream, so the burst
	// schedule is seed-deterministic.
	r       *rng.Rand
	inBurst bool
}

// ParseArrival parses an arrival spec and starts its process. stream
// seeds the process's own randomness (the MMPP state chain); derive it
// from the fleet seed so one knob reproduces the whole run.
func ParseArrival(spec string, stream *rng.Rand) (*Arrival, error) {
	a, err := ParseArrivalSpec(spec)
	if err != nil {
		return nil, err
	}
	p := &Arrival{spec: a}
	if a.Kind == "bursty" {
		p.r = stream.Split()
	}
	return p, nil
}

// Spec returns the canonical spec string the process was built from,
// with every parameter made explicit.
func (p *Arrival) Spec() string { return p.spec.String() }

// Rate returns the instantaneous arrival rate in requests per
// simulated second at time atNs, advancing the bursty state chain one
// step. Callers sample it once per tick, at the tick's start. The
// diurnal sinusoid starts at its trough, so a run opens in the quiet
// period and climbs toward peak traffic.
func (p *Arrival) Rate(atNs int64) float64 {
	a := &p.spec
	switch a.Kind {
	case "diurnal":
		phase := 2 * math.Pi * float64(atNs) / (a.PeriodMs * 1e6)
		return a.Rate * (1 + a.Depth*math.Sin(phase-math.Pi/2))
	case "bursty":
		if p.inBurst {
			if p.r.Float64() < a.PCalm {
				p.inBurst = false
			}
		} else {
			if p.r.Float64() < a.PBurst {
				p.inBurst = true
			}
		}
		if p.inBurst {
			return a.Rate * a.Burst
		}
	}
	return a.Rate
}

// poisson draws a Poisson-distributed count with the given mean, via
// Knuth's product-of-uniforms method — O(mean) per draw, exact, and a
// pure function of the stream. Per-tick means stay small (rate x tick,
// tens at most), so the linear cost is irrelevant.
func poisson(r *rng.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Split very large means to keep exp(-mean) away from underflow.
	k := 0
	for mean > 256 {
		k += poisson(r, 256)
		mean -= 256
	}
	limit := math.Exp(-mean)
	p := 1.0
	n := -1
	for p > limit {
		p *= r.Float64()
		n++
	}
	if n < 0 {
		n = 0
	}
	return k + n
}

// drawWindow appends the sorted arrival times of one tick window
// [fromNs, toNs) to buf: a Poisson count at the window's sampled rate,
// with offsets uniform over the window. Equal draws are
// interchangeable, so the sort is canonical.
func drawWindow(r *rng.Rand, a *Arrival, fromNs, toNs int64, buf []int64) []int64 {
	rate := a.Rate(fromNs)
	span := toNs - fromNs
	if span <= 0 {
		return buf
	}
	mean := rate * float64(span) * 1e-9
	n := poisson(r, mean)
	start := len(buf)
	for i := 0; i < n; i++ {
		buf = append(buf, fromNs+int64(r.Float64()*float64(span)))
	}
	win := buf[start:]
	sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
	return buf
}
