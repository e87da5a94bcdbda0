package param

import (
	"math"
	"testing"
)

// targets is one fresh table of every target type.
type targets struct {
	f float64
	n int
	u uint64
}

func (t *targets) table() map[string]any {
	return map[string]any{"f": &t.f, "n": &t.n, "u": &t.u}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want targets // zero value when the input is rejected
		ok   bool
	}{
		{"", targets{}, true},
		{"f=2.5", targets{f: 2.5}, true},
		{"n=3", targets{n: 3}, true},
		{"n=3.0", targets{n: 3}, true},
		{"n=2e1", targets{n: 20}, true},
		{"n=-4", targets{n: -4}, true},
		{"u=18446744073709551615", targets{u: math.MaxUint64}, true},
		{"f=1,n=2,u=3", targets{f: 1, n: 2, u: 3}, true},
		{"f=1,f=7", targets{f: 7}, true}, // the last value wins
		{"f=1e-3", targets{f: 0.001}, true},
		// Empty items are skipped; items, keys and values are trimmed.
		{"f=1,", targets{f: 1}, true},
		{",,f=1,,", targets{f: 1}, true},
		{" f = 5 , n= 2 ", targets{f: 5, n: 2}, true},
		{"f= 5", targets{f: 5}, true},
		{" , ", targets{}, true},
		// Non-finite floats, for both numeric kinds.
		{"f=NaN", targets{}, false},
		{"f=nan", targets{}, false},
		{"f=Inf", targets{}, false},
		{"f=+Inf", targets{}, false},
		{"f=-Inf", targets{}, false},
		{"f=infinity", targets{}, false},
		{"f=1e400", targets{}, false},
		{"n=NaN", targets{}, false},
		{"n=Inf", targets{}, false},
		// Values the target cannot hold.
		{"f=x", targets{}, false},
		{"f=", targets{}, false},
		{"n=2.5", targets{}, false},
		{"n=1e300", targets{}, false},
		{"u=-1", targets{}, false},
		{"u=1.5", targets{}, false},
		{"u=18446744073709551616", targets{}, false},
		// Malformed items and unknown keys.
		{"f", targets{}, false},
		{"f=1,n", targets{}, false},
		{"=1", targets{}, false},
		{"g=1", targets{}, false},
		{"F=1", targets{}, false},
	}
	for _, c := range cases {
		var got targets
		err := Parse(c.in, ",", got.table())
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseSeparator(t *testing.T) {
	var got targets
	if err := Parse("f=1;n=2", ";", got.table()); err != nil {
		t.Fatal(err)
	}
	if got != (targets{f: 1, n: 2}) {
		t.Errorf("';'-separated list parsed to %+v", got)
	}
	// With ';' as the separator a comma belongs to the value.
	if err := Parse("f=1,n=2", ";", got.table()); err == nil {
		t.Error(`Parse("f=1,n=2", ";") accepted a comma inside a value`)
	}
}

func TestParseRejectsUnsupportedTarget(t *testing.T) {
	var s string
	if err := Parse("s=1", ",", map[string]any{"s": &s}); err == nil {
		t.Error("Parse accepted a *string target")
	}
}

func TestFloatRoundTrips(t *testing.T) {
	for _, v := range []float64{0, 1, -2.5, 0.1, 1.0 / 3, 2000, 1e-9, 6.02214076e23, math.MaxFloat64} {
		var got float64
		if err := Parse("f="+Float(v), ",", map[string]any{"f": &got}); err != nil {
			t.Fatalf("Float(%v) = %q does not parse: %v", v, Float(v), err)
		}
		if got != v { //sbvet:allow floateq(the round trip must be exact, not approximate)
			t.Errorf("Float(%v) = %q parses back to %v", v, Float(v), got)
		}
	}
	if got := Float(2000); got != "2000" {
		t.Errorf("Float(2000) = %q, want shortest form \"2000\"", got)
	}
}

// floatKeys are the float parameters of the four grammars: fault
// plans, synth: workloads, contention specs and fleet arrivals.
var floatKeys = []string{
	"drop", "stale", "corrupt", "powerdrop", "powerspike", "migfail", "spikex",
	"ins", "ilp", "mem", "bsh", "wsi", "wsd", "ent", "mlp", "sleep",
	"llc", "bw", "bus", "slope",
	"rate", "depth", "period", "burst", "pburst", "pcalm",
}

// FuzzParse: Parse never panics, and every float it accepts is finite.
// It parses into one table holding every key of the four grammars, with
// its real target type. The seed corpus holds every malformed input of
// the grammars' reject tests, as Parse receives it (after the "synth:",
// "on," or "kind:" prefix), plus each non-finite spelling they test.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// fault plans
		"drop", "drop=x", "bogus=1", "drop=1.5", "drop=0.7;stale=0.7", "spikex=0.5",
		"seed=-1", "powerspike=0.5;spikex=NaN", "powerspike=0.5;spikex=Inf",
		// synth workloads
		"phases=0", "phases=2.5", "ins=0", "mem=0.9", "bsh=0.4", "mlp=32", "sleep=-1",
		"ant=3", "ant=-1", "ant=1.5", "bogus=1", "ilp", "ilp=x", "blackscholes", "synthetic:phases=2",
		// contention specs
		"maybe", "llc", "llc=x", "cache=64", "llc=-1", "llc=2097152", "bw=-2", "bw=4096",
		"bus=-1", "bus=2000", "slope=-0.1", "slope=9", "off,llc=64",
		// arrival specs
		"poisson", "rate=0", "rate=-5", "burst=2", "rate", "rate=x", "depth=1.5", "period=0",
		"burst=1", "pburst=0", "pcalm=2", "rate=10,extra=1",
		// separators and spaces
		"", ",", "=", "==", " ins = 1 ,", "ins=1=2", "ins=0x1p-2", "phases=9007199254740993",
	} {
		f.Add(s)
	}
	for _, k := range floatKeys {
		for _, v := range []string{"NaN", "Inf", "+Inf", "-Inf", "infinity"} {
			f.Add(k + "=" + v)
		}
	}
	f.Fuzz(func(t *testing.T, list string) {
		for _, sep := range []string{",", ";"} {
			floats := make(map[string]*float64, len(floatKeys))
			table := map[string]any{"phases": new(int), "ant": new(int), "seed": new(uint64)}
			for _, k := range floatKeys {
				floats[k] = new(float64)
				table[k] = floats[k]
			}
			if err := Parse(list, sep, table); err != nil {
				continue
			}
			for k, v := range floats {
				if math.IsNaN(*v) || math.IsInf(*v, 0) {
					t.Fatalf("Parse(%q, %q) accepted non-finite %s=%v", list, sep, k, *v)
				}
			}
		}
	})
}
