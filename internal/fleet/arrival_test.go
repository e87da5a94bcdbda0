package fleet

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"smartbalance/internal/param"
	"smartbalance/internal/rng"
)

func TestParseArrivalCanonicalSpecs(t *testing.T) {
	cases := []struct{ in, want string }{
		{"uniform", "uniform:rate=400"},
		{"uniform:rate=250", "uniform:rate=250"},
		{"diurnal", "diurnal:rate=400,depth=0.6,period=2000"},
		{"diurnal:rate=100,depth=0.3,period=500", "diurnal:rate=100,depth=0.3,period=500"},
		{"bursty", "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25"},
		{"bursty:rate=120,burst=3,pburst=0.1,pcalm=0.5", "bursty:rate=120,burst=3,pburst=0.1,pcalm=0.5"},
	}
	for _, c := range cases {
		a, err := ParseArrival(c.in, rng.New(1))
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", c.in, err)
		}
		if got := a.Spec(); got != c.want {
			t.Errorf("ParseArrival(%q).Spec() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseArrivalRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"poisson",                // unknown kind
		"uniform:rate=0",         // non-positive rate
		"uniform:rate=-5",        //
		"uniform:burst=2",        // unknown parameter
		"uniform:rate",           // malformed key=value
		"uniform:rate=x",         // non-numeric
		"diurnal:depth=1.5",      // depth outside [0,1)
		"diurnal:period=0",       // non-positive period
		"bursty:burst=1",         // burst must exceed 1
		"bursty:pburst=0",        // probability outside (0,1]
		"bursty:pcalm=2",         //
		"bursty:rate=10,extra=1", // unknown parameter
	}
	for _, in := range bad {
		if _, err := ParseArrival(in, rng.New(1)); err == nil {
			t.Errorf("ParseArrival(%q) accepted, want error", in)
		}
	}
}

// TestParseArrivalRejectsNonFinite: strconv.ParseFloat accepts NaN and
// Inf, which every range check passes (NaN compares false) and which
// hang or corrupt the draw (an Inf rate draws zero gaps, so a window
// never ends; a NaN rate makes the running time NaN). Every kind and
// parameter must refuse them.
func TestParseArrivalRejectsNonFinite(t *testing.T) {
	params := map[string][]string{
		"uniform": {"rate"},
		"diurnal": {"rate", "depth", "period"},
		"bursty":  {"rate", "burst", "pburst", "pcalm"},
	}
	for _, kind := range []string{"uniform", "diurnal", "bursty"} {
		for _, p := range params[kind] {
			for _, v := range []string{"NaN", "Inf", "+Inf", "-Inf", "infinity"} {
				in := kind + ":" + p + "=" + v
				if _, err := ParseArrival(in, rng.New(1)); err == nil {
					t.Errorf("ParseArrival(%q) accepted, want error", in)
				}
			}
		}
	}
}

// until drives a fresh process of spec and seed to endNs in windows
// of windowNs and returns every arrival time, in order.
func until(t *testing.T, spec string, seed uint64, endNs, windowNs int64) []int64 {
	t.Helper()
	a, err := ParseArrival(spec, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for from := int64(0); from < endNs; from += windowNs {
		out = a.Until(min(from+windowNs, endNs), out)
	}
	return out
}

func TestArrivalsDeterministicUnderEqualSeeds(t *testing.T) {
	for _, spec := range []string{"uniform", "diurnal", "bursty"} {
		a := until(t, spec, 42, 2e9, 5e6)
		b := until(t, spec, 42, 2e9, 5e6)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: equal seeds drew different streams (%d vs %d arrivals)", spec, len(a), len(b))
		}
	}
}

func TestArrivalsDistinctUnderDistinctSeeds(t *testing.T) {
	for _, spec := range []string{"uniform", "diurnal", "bursty"} {
		a := until(t, spec, 1, 2e9, 5e6)
		b := until(t, spec, 2, 2e9, 5e6)
		if slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 drew identical streams (%d arrivals)", spec, len(a))
		}
	}
}

func TestArrivalsSortedWithinWindows(t *testing.T) {
	a, err := ParseArrival("bursty", rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf []int64
	const tick = 5e6
	for i := 0; i < 200; i++ {
		from, to := int64(i)*tick, int64(i+1)*tick
		buf = a.Until(to, buf[:0])
		for j, at := range buf {
			if at < from || at >= to {
				t.Fatalf("tick %d: arrival %d at %dns outside [%d, %d)", i, j, at, from, to)
			}
			if j > 0 && buf[j-1] > at {
				t.Fatalf("tick %d: arrivals out of order at %d", i, j)
			}
		}
	}
}

// TestUntilSameForAnyWindows: the stream is a function of the spec and
// the seed alone, so windows of 1, 2, 5 and 10 ms cut the one stream
// that a single window over the whole span returns.
func TestUntilSameForAnyWindows(t *testing.T) {
	const spanNs = int64(2e9)
	for _, spec := range []string{"uniform", "diurnal", "bursty"} {
		whole := until(t, spec, 3, spanNs, spanNs)
		if len(whole) < 100 {
			t.Fatalf("%s: only %d arrivals in %d ns", spec, len(whole), spanNs)
		}
		for _, windowMs := range []int64{1, 2, 5, 10} {
			if got := until(t, spec, 3, spanNs, windowMs*1e6); !slices.Equal(got, whole) {
				t.Errorf("%s: %d ms windows drew %d arrivals, one window %d",
					spec, windowMs, len(got), len(whole))
			}
		}
	}
}

// The realised-rate tests pool rateSeeds seeds of rateSpanNs each:
// 1,280 simulated seconds per kind. Over that span the uniform and
// diurnal counts are Poisson, within 0.15 % of their mean at one
// standard deviation, and bursty's burst correlation widens its count
// to about 0.5 %; its burst-time share and mean burst and calm lengths
// sit within about 1 %. The bands below are several of those wide.
const (
	rateSeeds  = 64
	rateSpanNs = int64(20e9)
)

// realisedRate returns spec's mean arrival rate in requests per
// simulated second over rateSeeds seeds.
func realisedRate(t *testing.T, spec string) float64 {
	t.Helper()
	total := 0
	for seed := uint64(1); seed <= rateSeeds; seed++ {
		total += len(until(t, spec, seed, rateSpanNs, rateSpanNs))
	}
	return float64(total) / (rateSeeds * float64(rateSpanNs) * 1e-9)
}

// within reports whether got lies within a relative band of want.
func within(got, want, band float64) bool { return math.Abs(got-want) <= band*want }

func TestUniformMeanRate(t *testing.T) {
	got := realisedRate(t, "uniform:rate=400")
	t.Logf("uniform rate=400: %.2f req/s", got)
	if !within(got, 400, 0.02) {
		t.Errorf("uniform rate=400 drew %.2f req/s, want within 2%% of 400", got)
	}
}

func TestDiurnalMeanRate(t *testing.T) {
	// Whole periods (20 s is ten 2000 ms periods): the sinusoid
	// averages out, so the realised mean is the base rate.
	const spec = "diurnal:rate=400,depth=0.6,period=2000"
	got := realisedRate(t, spec)
	t.Logf("%s: %.2f req/s", spec, got)
	if !within(got, 400, 0.02) {
		t.Errorf("diurnal rate=400 drew %.2f req/s over whole periods, want within 2%% of 400", got)
	}

	// The first quarter-period sits at the trough, the third at the
	// peak: (1-depth) vs (1+depth) of the base rate.
	periodNs := int64(2000) * 1e6
	var trough, peak int
	for _, at := range until(t, spec, 4, 10e9, 10e9) {
		switch phase := at % periodNs; {
		case phase < periodNs/4:
			trough++
		case phase >= periodNs/2 && phase < 3*periodNs/4:
			peak++
		}
	}
	if trough*2 >= peak {
		t.Errorf("diurnal modulation missing: trough quarter drew %d, peak quarter %d", trough, peak)
	}
}

func TestBurstyMeanRate(t *testing.T) {
	// The MMPP spends a share s = pburst/(pburst+pcalm) of its time in
	// the burst state, so its long-run mean rate is
	// rate*(1 + (burst-1)*s).
	s := 0.08 / (0.08 + 0.25)
	want := 300 * (1 + 5*s)
	got := realisedRate(t, "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25")
	t.Logf("bursty: %.2f req/s, spec mean %.2f", got, want)
	if !within(got, want, 0.03) {
		t.Errorf("bursty drew %.2f req/s, want within 3%% of %.2f", got, want)
	}
}

// TestBurstyBurstShare steps the process event by event and times its
// states: the burst-time share must be pburst/(pburst+pcalm), and the
// mean burst and calm lengths burstStepNs/pcalm and burstStepNs/pburst,
// the values of a chain that switches with these probabilities once
// every burstStepNs.
func TestBurstyBurstShare(t *testing.T) {
	spec, err := ParseArrivalSpec("bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25")
	if err != nil {
		t.Fatal(err)
	}
	var stateNs [2]float64 // calm, burst
	var ended [2]int       // completed calm and burst periods
	for seed := uint64(1); seed <= rateSeeds; seed++ {
		a := &Arrival{spec: spec, r: rng.New(seed)}
		for a.t < float64(rateSpanNs) {
			from, burst := a.t, a.inBurst
			a.step()
			state := 0
			if burst {
				state = 1
			}
			stateNs[state] += min(a.t, float64(rateSpanNs)) - from
			if a.inBurst != burst && a.t < float64(rateSpanNs) {
				ended[state]++
			}
		}
	}
	share := stateNs[1] / (stateNs[0] + stateNs[1])
	t.Logf("burst-time share %.4f; mean calm %.4g ns over %d periods, burst %.4g ns over %d",
		share, stateNs[0]/float64(ended[0]), ended[0], stateNs[1]/float64(ended[1]), ended[1])
	if want := 0.08 / (0.08 + 0.25); !within(share, want, 0.05) {
		t.Errorf("burst-time share %.4f, want within 5%% of %.4f", share, want)
	}
	for state, p := range [2]float64{spec.PBurst, spec.PCalm} {
		mean := stateNs[state] / float64(ended[state])
		if want := burstStepNs / p; !within(mean, want, 0.05) {
			t.Errorf("state %d lasts %.3g ns on average over %d periods, want within 5%% of %.3g",
				state, mean, ended[state], want)
		}
	}
}

func TestArrivalSpecRoundTrips(t *testing.T) {
	// Canonical specs must re-parse to themselves: the fleet records
	// them in telemetry meta, and reproducing a run from the export
	// depends on the round trip.
	for _, spec := range []string{"uniform", "diurnal", "bursty"} {
		a, err := ParseArrival(spec, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		canon := a.Spec()
		b, err := ParseArrival(canon, rng.New(1))
		if err != nil {
			t.Fatalf("canonical spec %q does not re-parse: %v", canon, err)
		}
		if got := b.Spec(); got != canon {
			t.Errorf("spec %q round-trips to %q", canon, got)
		}
		if !strings.HasPrefix(canon, spec+":") {
			t.Errorf("canonical spec %q does not extend %q", canon, spec)
		}
	}
}

// TestArrivalSpecRoundTripsProperty is the regression test for the
// diurnal period truncation bug: Spec() rendered periodNs/1e6 with %d,
// so any non-integral-millisecond period (period=2.5) came back as its
// floor (period=2) from ParseArrival(a.Spec()). The round trip must be
// an identity for every valid parameter combination, so this drives it
// with seeded random params, including gnarly fractional ones.
func TestArrivalSpecRoundTripsProperty(t *testing.T) {
	r := rng.New(0xA221)
	// in (lo, hi]: arrival params are all strictly positive.
	draw := func(lo, hi float64) float64 {
		return lo + (hi-lo)*r.Float64()
	}
	for i := 0; i < 500; i++ {
		var spec string
		switch i % 3 {
		case 0:
			spec = "uniform:rate=" + param.Float(draw(0, 2000))
		case 1:
			spec = fmt.Sprintf("diurnal:rate=%s,depth=%s,period=%s",
				param.Float(draw(0, 2000)), param.Float(draw(0, 0.999)), param.Float(draw(0, 5000)))
		case 2:
			spec = fmt.Sprintf("bursty:rate=%s,burst=%s,pburst=%s,pcalm=%s",
				param.Float(draw(0, 2000)), param.Float(draw(1, 20)),
				param.Float(draw(0, 1)), param.Float(draw(0, 1)))
		}
		a, err := ParseArrival(spec, rng.New(1))
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", spec, err)
		}
		if got := a.Spec(); got != spec {
			t.Fatalf("round trip broke: ParseArrival(%q).Spec() = %q", spec, got)
		}
	}
	// The documented pre-fix victim, pinned explicitly.
	spec := "diurnal:rate=400,depth=0.6,period=2.5"
	a, err := ParseArrival(spec, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Spec(); got != spec {
		t.Fatalf("fractional period truncated: got %q, want %q", got, spec)
	}
}
