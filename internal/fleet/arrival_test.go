package fleet

import (
	"fmt"
	"strings"
	"testing"

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
// hang or silence the draw (an Inf rate never ends the Poisson split,
// a NaN rate draws nothing). Every kind and parameter must refuse them.
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

// drawAll draws count ticks of tickNs each and returns every arrival
// offset in order.
func drawAll(t *testing.T, spec string, seed uint64, ticks int, tickNs int64) []int64 {
	t.Helper()
	stream := rng.New(seed)
	a, err := ParseArrival(spec, stream)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for i := 0; i < ticks; i++ {
		out = drawWindow(stream, a, int64(i)*tickNs, int64(i+1)*tickNs, out)
	}
	return out
}

func TestArrivalsDeterministicUnderEqualSeeds(t *testing.T) {
	for _, spec := range []string{"uniform", "diurnal", "bursty"} {
		a := drawAll(t, spec, 42, 400, 5e6)
		b := drawAll(t, spec, 42, 400, 5e6)
		if len(a) != len(b) {
			t.Fatalf("%s: equal seeds drew %d vs %d arrivals", spec, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: equal seeds diverge at arrival %d: %d vs %d", spec, i, a[i], b[i])
			}
		}
	}
}

func TestArrivalsDistinctUnderDistinctSeeds(t *testing.T) {
	for _, spec := range []string{"uniform", "diurnal", "bursty"} {
		a := drawAll(t, spec, 1, 400, 5e6)
		b := drawAll(t, spec, 2, 400, 5e6)
		same := len(a) == len(b)
		if same {
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 drew identical streams (%d arrivals)", spec, len(a))
		}
	}
}

func TestArrivalsSortedWithinWindows(t *testing.T) {
	stream := rng.New(9)
	a, err := ParseArrival("bursty", stream)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int64
	const tick = 5e6
	for i := 0; i < 200; i++ {
		from, to := int64(i)*tick, int64(i+1)*tick
		buf = drawWindow(stream, a, from, to, buf[:0])
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

// meanRate estimates the empirical rate in requests per second over
// the drawn span.
func meanRate(arrivals []int64, spanNs int64) float64 {
	return float64(len(arrivals)) / (float64(spanNs) * 1e-9)
}

func TestUniformMeanRate(t *testing.T) {
	const ticks, tick = 2000, int64(5e6) // 10 simulated seconds
	got := meanRate(drawAll(t, "uniform:rate=400", 3, ticks, tick), int64(ticks)*tick)
	if got < 360 || got > 440 {
		t.Errorf("uniform rate=400 drew %.1f req/s, want within [360, 440]", got)
	}
}

func TestDiurnalMeanRate(t *testing.T) {
	// Whole periods: the sinusoid averages out, so the empirical mean
	// approaches the base rate; and the trough/peak windows must differ.
	const tick = int64(5e6)
	const ticks = 2000 // 10s = 5 full 2000ms periods
	arrivals := drawAll(t, "diurnal:rate=400,depth=0.6,period=2000", 4, ticks, tick)
	got := meanRate(arrivals, int64(ticks)*tick)
	if got < 360 || got > 440 {
		t.Errorf("diurnal rate=400 drew %.1f req/s over whole periods, want within [360, 440]", got)
	}

	// The first quarter-period sits at the trough, the third at the
	// peak: (1-depth) vs (1+depth) of the base rate.
	periodNs := int64(2000) * 1e6
	var trough, peak int
	for _, at := range arrivals {
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
	// The MMPP's stationary burst fraction is pburst/(pburst+pcalm);
	// its long-run mean rate is rate*(1 + frac*(burst-1)).
	const tick = int64(5e6)
	const ticks = 8000 // 40 simulated seconds to let the chain mix
	got := meanRate(drawAll(t, "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25", 5, ticks, tick), int64(ticks)*tick)
	frac := 0.08 / (0.08 + 0.25)
	want := 300 * (1 + frac*5)
	if got < want*0.85 || got > want*1.15 {
		t.Errorf("bursty drew %.1f req/s, want within 15%% of %.1f", got, want)
	}
	// And it must actually burst: the peak rate observed in some window
	// should reach the burst multiplier, not hover at the base rate.
	stream := rng.New(5)
	a, err := ParseArrival("bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25", stream)
	if err != nil {
		t.Fatal(err)
	}
	sawBurst := false
	for i := 0; i < 1000 && !sawBurst; i++ {
		sawBurst = a.Rate(int64(i)*tick) > 300*5
	}
	if !sawBurst {
		t.Error("bursty process never entered the burst state in 1000 ticks")
	}
}

func TestPoissonMean(t *testing.T) {
	r := rng.New(11)
	for _, mean := range []float64{0.5, 3, 40, 700} {
		var total int
		const draws = 4000
		for i := 0; i < draws; i++ {
			total += poisson(r, mean)
		}
		got := float64(total) / draws
		if got < mean*0.9 || got > mean*1.1 {
			t.Errorf("poisson(mean=%v) averaged %.3f over %d draws", mean, got, draws)
		}
	}
	if n := poisson(r, 0); n != 0 {
		t.Errorf("poisson(0) = %d, want 0", n)
	}
	if n := poisson(r, -3); n != 0 {
		t.Errorf("poisson(-3) = %d, want 0", n)
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
			spec = "uniform:rate=" + formatRate(draw(0, 2000))
		case 1:
			spec = fmt.Sprintf("diurnal:rate=%s,depth=%s,period=%s",
				formatRate(draw(0, 2000)), formatRate(draw(0, 0.999)), formatRate(draw(0, 5000)))
		case 2:
			spec = fmt.Sprintf("bursty:rate=%s,burst=%s,pburst=%s,pcalm=%s",
				formatRate(draw(0, 2000)), formatRate(draw(1, 20)),
				formatRate(draw(0, 1)), formatRate(draw(0, 1)))
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
