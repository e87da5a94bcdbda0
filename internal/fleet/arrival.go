package fleet

import (
	"fmt"
	"math"
	"strings"

	"smartbalance/internal/param"
	"smartbalance/internal/rng"
)

// Arrival processes: the open-loop request streams the fleet admits.
// "Open-loop" means arrivals never wait for the system — the stream
// stands in for millions of independent users, whose request times do
// not depend on how loaded the fleet is. Each process is a
// continuous-time point process drawn from one generator seeded by the
// fleet seed, so equal seeds regenerate the identical request sequence
// for any policy, worker count or dispatch tick.
//
// The spec grammar is "kind" or "kind:key=val,key=val":
//
//	uniform:rate=400                        constant-rate Poisson
//	diurnal:rate=400,depth=0.6,period=2000  sinusoid-modulated Poisson
//	bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25
//
// diurnal's period is in simulated milliseconds (one compressed
// "day"); bursty is a two-state MMPP (Markov-modulated Poisson
// process): a calm state at the base rate and a burst state at burst x
// the base rate, leaving calm at rate pburst per 5 ms and a burst at
// rate pcalm per 5 ms.

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

// burstStepNs defines bursty's switching probabilities: pburst and
// pcalm are the chances of a switch within one 5 ms step, so the
// process leaves calm at rate pburst/burstStepNs and a burst at rate
// pcalm/burstStepNs. It is part of the process's definition, not a
// parameter: the keys were defined on a 5 ms step, and at these rates
// the process keeps that step's stationary burst share
// pburst/(pburst+pcalm) and its mean burst and calm lengths,
// burstStepNs/pcalm and burstStepNs/pburst.
const burstStepNs = 5e6

// Arrival is one running open-loop arrival process: a continuous-time
// point process drawn from its own generator, so the stream depends on
// the spec and the seed alone, never on how a caller cuts time into
// windows. It is not safe for concurrent use; the fleet drives it from
// its serial dispatch section only.
type Arrival struct {
	spec ArrivalSpec
	r    *rng.Rand
	// t is the time of the last event in float64 ns, inBurst bursty's
	// state, and next the time of the next arrival, drawn but not yet
	// returned.
	t       float64
	inBurst bool
	next    int64
}

// ParseArrival parses an arrival spec and starts its process. Every
// draw comes from one split of stream; derive stream from the fleet
// seed so one knob reproduces the whole run.
func ParseArrival(spec string, stream *rng.Rand) (*Arrival, error) {
	a, err := ParseArrivalSpec(spec)
	if err != nil {
		return nil, err
	}
	p := &Arrival{spec: a, r: stream.Split()}
	p.advance()
	return p, nil
}

// Spec returns the canonical spec string the process was built from,
// with every parameter made explicit.
func (p *Arrival) Spec() string { return p.spec.String() }

// Until appends the arrival times before endNs that no earlier call
// returned to buf, in order, and returns it. Calls with growing ends
// cut one stream into windows, so the arrivals are the same however
// the caller cuts it.
func (p *Arrival) Until(endNs int64, buf []int64) []int64 {
	for p.next < endNs {
		buf = append(buf, p.next)
		p.advance()
	}
	return buf
}

// advance steps the process to its next arrival, whose time is the
// running time truncated to whole nanoseconds.
func (p *Arrival) advance() {
	for !p.step() {
	}
	p.next = int64(p.t)
}

// step draws one event and reports whether it is an arrival: an
// exponential gap at the kind's event rate, then, for diurnal and
// bursty, one uniform that decides what the event is. Diurnal thins
// events at the peak rate rate*(1+depth), keeping each with
// probability rate(t)/peak; its sinusoid starts at the trough at t = 0,
// so a run opens in the quiet period. Bursty races the state's arrival
// rate (rate, or rate*burst) against its switching rate, and the event
// is a switch with probability switching/(rate+switching).
func (p *Arrival) step() bool {
	a := &p.spec
	rate := a.Rate / 1e9 // per ns
	switch a.Kind {
	case "diurnal":
		peak := rate * (1 + a.Depth)
		p.t += p.gap(peak)
		phase := 2 * math.Pi * p.t / (a.PeriodMs * 1e6)
		return p.r.Float64()*peak < rate*(1+a.Depth*math.Sin(phase-math.Pi/2))
	case "bursty":
		switching := a.PBurst / burstStepNs
		if p.inBurst {
			rate, switching = rate*a.Burst, a.PCalm/burstStepNs
		}
		p.t += p.gap(rate + switching)
		if p.r.Float64()*(rate+switching) < switching {
			p.inBurst = !p.inBurst
			return false
		}
		return true
	}
	p.t += p.gap(rate)
	return true
}

// gap draws an exponential gap in ns at the given event rate per ns.
func (p *Arrival) gap(rate float64) float64 {
	return -math.Log(1-p.r.Float64()) / rate
}
