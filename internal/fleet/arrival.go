package fleet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

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

// Arrival is one open-loop arrival process. Implementations are
// stateful (the MMPP remembers its phase) and not safe for concurrent
// use; the fleet drives them from its serial dispatch section only.
type Arrival interface {
	// Spec returns the canonical spec string the process was built
	// from, with every parameter made explicit.
	Spec() string
	// Rate returns the instantaneous arrival rate in requests per
	// simulated second at time atNs, advancing any internal state the
	// process keeps per observation window. Callers sample it once per
	// tick, at the tick's start.
	Rate(atNs int64) float64
}

// uniformArrival is a constant-rate Poisson process.
type uniformArrival struct {
	rate float64
}

func (u *uniformArrival) Spec() string {
	return "uniform:rate=" + formatRate(u.rate)
}

func (u *uniformArrival) Rate(int64) float64 { return u.rate }

// diurnalArrival modulates a Poisson process with one sinusoid —
// the compressed day/night cycle. The phase starts at the trough so a
// run opens in the quiet period and climbs toward peak traffic.
type diurnalArrival struct {
	rate  float64 // mean rate, req/s
	depth float64 // modulation depth in [0, 1)
	// periodMs is one full cycle in (possibly fractional) simulated
	// milliseconds — kept exactly as parsed so Spec() round-trips. The
	// old int64-nanosecond field made the round trip lossy twice over:
	// Spec() rendered it with %d (truncating fractional milliseconds)
	// and the parse truncated rather than rounded the ms->ns scaling.
	periodMs float64
}

func (d *diurnalArrival) Spec() string {
	return fmt.Sprintf("diurnal:rate=%s,depth=%s,period=%s",
		formatRate(d.rate), formatRate(d.depth), formatRate(d.periodMs))
}

func (d *diurnalArrival) Rate(atNs int64) float64 {
	phase := 2 * math.Pi * float64(atNs) / (d.periodMs * 1e6)
	return d.rate * (1 + d.depth*math.Sin(phase-math.Pi/2))
}

// burstyArrival is a two-state Markov-modulated Poisson process: calm
// at the base rate, bursting at burst x base, with per-tick switching
// probabilities. The state chain draws from its own split of the fleet
// arrival stream, so the burst schedule is seed-deterministic.
type burstyArrival struct {
	rate    float64 // calm-state rate, req/s
	burst   float64 // burst-state multiplier, > 1
	pBurst  float64 // P(calm -> burst) per rate sample
	pCalm   float64 // P(burst -> calm) per rate sample
	r       *rng.Rand
	inBurst bool
}

func (b *burstyArrival) Spec() string {
	return fmt.Sprintf("bursty:rate=%s,burst=%s,pburst=%s,pcalm=%s",
		formatRate(b.rate), formatRate(b.burst), formatRate(b.pBurst), formatRate(b.pCalm))
}

func (b *burstyArrival) Rate(int64) float64 {
	if b.inBurst {
		if b.r.Float64() < b.pCalm {
			b.inBurst = false
		}
	} else {
		if b.r.Float64() < b.pBurst {
			b.inBurst = true
		}
	}
	if b.inBurst {
		return b.rate * b.burst
	}
	return b.rate
}

// ParseArrival parses an arrival spec. stream seeds the process's own
// randomness (the MMPP state chain); derive it from the fleet seed so
// one knob reproduces the whole run.
func ParseArrival(spec string, stream *rng.Rand) (Arrival, error) {
	kind := spec
	params := ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind, params = spec[:i], spec[i+1:]
	}
	kv, err := parseParams(params)
	if err != nil {
		return nil, fmt.Errorf("fleet: arrival %q: %w", spec, err)
	}
	get := func(key string, def float64) float64 {
		if v, ok := kv[key]; ok {
			delete(kv, key)
			return v
		}
		return def
	}
	var a Arrival
	switch kind {
	case "uniform":
		u := &uniformArrival{rate: get("rate", 400)}
		if u.rate <= 0 {
			return nil, fmt.Errorf("fleet: arrival %q: non-positive rate", spec)
		}
		a = u
	case "diurnal":
		d := &diurnalArrival{
			rate:     get("rate", 400),
			depth:    get("depth", 0.6),
			periodMs: get("period", 2000),
		}
		if d.rate <= 0 || d.periodMs <= 0 {
			return nil, fmt.Errorf("fleet: arrival %q: non-positive rate or period", spec)
		}
		if d.depth < 0 || d.depth >= 1 {
			return nil, fmt.Errorf("fleet: arrival %q: depth %v outside [0,1)", spec, d.depth)
		}
		a = d
	case "bursty":
		b := &burstyArrival{
			rate:   get("rate", 300),
			burst:  get("burst", 6),
			pBurst: get("pburst", 0.08),
			pCalm:  get("pcalm", 0.25),
			r:      stream.Split(),
		}
		if b.rate <= 0 || b.burst <= 1 {
			return nil, fmt.Errorf("fleet: arrival %q: need rate > 0 and burst > 1", spec)
		}
		if b.pBurst <= 0 || b.pBurst > 1 || b.pCalm <= 0 || b.pCalm > 1 {
			return nil, fmt.Errorf("fleet: arrival %q: switching probabilities outside (0,1]", spec)
		}
		a = b
	default:
		return nil, fmt.Errorf("fleet: unknown arrival kind %q (uniform | diurnal | bursty)", kind)
	}
	if len(kv) > 0 {
		keys := make([]string, 0, len(kv))
		for k := range kv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, fmt.Errorf("fleet: arrival %q: unknown parameters %v", spec, keys)
	}
	return a, nil
}

// parseParams splits "k=v,k=v" into a map.
func parseParams(s string) (map[string]float64, error) {
	kv := map[string]float64{}
	if s == "" {
		return kv, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("malformed parameter %q (want key=value)", part)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %v", part, err)
		}
		// ParseFloat accepts NaN and Inf, which slip past every range
		// check below (NaN compares false) or never end a draw (Inf).
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("parameter %q: not a finite number", part)
		}
		kv[strings.TrimSpace(k)] = f
	}
	return kv, nil
}

// formatRate renders a parameter with the shortest exact form.
func formatRate(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

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
func drawWindow(r *rng.Rand, a Arrival, fromNs, toNs int64, buf []int64) []int64 {
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
