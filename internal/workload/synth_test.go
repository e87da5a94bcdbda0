package workload

import (
	"math"
	"strings"
	"testing"
)

func TestParseSynthDefaultsAndCanonicalForm(t *testing.T) {
	s, err := ParseSynth("synth:")
	if err != nil {
		t.Fatal(err)
	}
	if s != DefaultSynth() {
		t.Fatalf("bare synth: = %+v, want defaults %+v", s, DefaultSynth())
	}
	canon := s.String()
	if !strings.HasPrefix(canon, SynthPrefix+"phases=") {
		t.Fatalf("canonical form %q", canon)
	}
	again, err := ParseSynth(canon)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if again != s {
		t.Fatalf("round trip: %+v != %+v", again, s)
	}
	if again.String() != canon {
		t.Fatalf("canonical form unstable: %q then %q", canon, again.String())
	}
}

func TestParseSynthOverridesAndOrderIndependence(t *testing.T) {
	a, err := ParseSynth("synth:ilp=3.5,phases=4,mem=0.5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSynth("synth:mem=0.5,ilp=3.5,phases=4")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("parameter order changed the spec: %+v vs %+v", a, b)
	}
	if a.ILP != 3.5 || a.Phases != 4 || a.Mem != 0.5 {
		t.Fatalf("overrides not applied: %+v", a)
	}
	if a.InsM != DefaultSynth().InsM {
		t.Fatalf("omitted parameter not defaulted: %+v", a)
	}
}

func TestParseSynthRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"synth:phases=0",     // below domain
		"synth:phases=2.5",   // non-integer
		"synth:ins=0",        // below domain
		"synth:mem=0.9",      // above the jitter-safe cap
		"synth:bsh=0.4",      //
		"synth:mlp=32",       //
		"synth:sleep=-1",     //
		"synth:ant=3",        // unknown antagonist profile
		"synth:ant=-1",       //
		"synth:ant=1.5",      // non-integer
		"synth:bogus=1",      // unknown parameter
		"synth:ilp",          // malformed
		"synth:ilp=x",        // non-numeric
		"blackscholes",       // not a synth name
		"synthetic:phases=2", // wrong prefix
	}
	for _, in := range bad {
		if _, err := ParseSynth(in); err == nil {
			t.Errorf("ParseSynth(%q) accepted, want error", in)
		}
	}
}

// TestParseSynthRejectsNonFinite: every synth range check must refuse
// NaN, which compares false against both bounds, and the infinities.
func TestParseSynthRejectsNonFinite(t *testing.T) {
	for _, p := range []string{"ins", "ilp", "mem", "bsh", "wsi", "wsd", "ent", "mlp", "sleep"} {
		for _, v := range []string{"NaN", "Inf", "-Inf"} {
			in := "synth:" + p + "=" + v
			if _, err := ParseSynth(in); err == nil {
				t.Errorf("ParseSynth(%q) accepted, want error", in)
			}
		}
	}
	s := DefaultSynth()
	s.MLP = math.NaN()
	if err := s.Validate(); err == nil {
		t.Error("SynthSpec.Validate accepted MLP = NaN")
	}
}

// TestSynthAntagonistKnob: the ant knob round-trips through the
// canonical form, stays out of it when zero (so pre-existing names are
// byte-stable), and produces the documented steady aggressor shapes.
func TestSynthAntagonistKnob(t *testing.T) {
	if s := DefaultSynth().String(); strings.Contains(s, "ant=") {
		t.Fatalf("ant=0 leaked into the canonical form %q", s)
	}
	for _, ant := range []int{AntStreaming, AntCacheResident} {
		s, err := ParseSynth("synth:ant=" + string(rune('0'+ant)))
		if err != nil {
			t.Fatalf("ant=%d: %v", ant, err)
		}
		if s.Ant != ant {
			t.Fatalf("ant=%d parsed as %d", ant, s.Ant)
		}
		canon := s.String()
		if !strings.HasSuffix(canon, ",ant="+string(rune('0'+ant))) {
			t.Fatalf("canonical form %q does not carry ant=%d", canon, ant)
		}
		again, err := ParseSynth(canon)
		if err != nil || again != s {
			t.Fatalf("round trip of %q: %+v (%v)", canon, again, err)
		}
	}

	base, _ := ParseSynth("synth:phases=2")
	stream, _ := ParseSynth("synth:phases=2,ant=1")
	resident, _ := ParseSynth("synth:phases=2,ant=2")
	bp, sp, rp := base.phases(), stream.phases(), resident.phases()
	if sp[0].WorkingSetDKB < 8192 || sp[0].MemShare <= bp[0].MemShare {
		t.Fatalf("streaming antagonist not memory-aggressive: %+v", sp[0])
	}
	unnamed := func(p Phase) Phase { p.Name = ""; return p }
	if unnamed(sp[0]) != unnamed(sp[1]) || unnamed(rp[0]) != unnamed(rp[1]) {
		t.Fatalf("antagonist phases are not steady: %+v vs %+v", sp[0], sp[1])
	}
	if rp[0].WorkingSetDKB <= bp[0].WorkingSetDKB || rp[0].WorkingSetDKB > 8192 {
		t.Fatalf("cache-resident antagonist working set %v outside the LLC-slice regime", rp[0].WorkingSetDKB)
	}
	// Jittered spawns of the extreme corners must stay model-valid.
	for _, spec := range []string{
		"synth:phases=1,ins=1,ilp=0.5,mem=0,wsd=1,ant=1",
		"synth:phases=8,ins=500,ilp=8,mem=0.6,wsd=65536,ant=1",
		"synth:phases=8,ins=500,ilp=8,mem=0.6,wsd=65536,ant=2",
		"synth:wsd=64,ant=2",
	} {
		for seed := uint64(0); seed < 10; seed++ {
			threads, err := Synth(spec, 4, seed)
			if err != nil {
				t.Fatalf("Synth(%q, seed %d): %v", spec, seed, err)
			}
			for i := range threads {
				if err := threads[i].Validate(); err != nil {
					t.Fatalf("Synth(%q, seed %d) thread %d invalid: %v", spec, seed, i, err)
				}
			}
		}
	}
}

// TestSynthSpawnsValidThreads: every valid spec must materialise
// threads whose jittered phases still pass the model-domain
// validation, including the extreme corners of the spec domains.
func TestSynthSpawnsValidThreads(t *testing.T) {
	specs := []string{
		"synth:",
		"synth:phases=1,ins=1,ilp=0.5,mem=0,bsh=0,wsi=1,wsd=1,ent=0,mlp=1,sleep=0",
		"synth:phases=8,ins=500,ilp=8,mem=0.6,bsh=0.25,wsi=1024,wsd=65536,ent=1,mlp=8,sleep=50",
		"synth:phases=3,mem=0.6,bsh=0.25",
	}
	for _, spec := range specs {
		for seed := uint64(0); seed < 20; seed++ {
			threads, err := Synth(spec, 4, seed)
			if err != nil {
				t.Fatalf("Synth(%q, seed %d): %v", spec, seed, err)
			}
			if len(threads) != 4 {
				t.Fatalf("Synth(%q) made %d threads", spec, len(threads))
			}
			for i := range threads {
				if err := threads[i].Validate(); err != nil {
					t.Fatalf("Synth(%q, seed %d) thread %d invalid: %v", spec, seed, i, err)
				}
			}
		}
	}
}

// TestSynthDeterministicAndPhasic: equal (spec, seed) reproduce equal
// threads, and multi-phase specs alternate toward memory-bound odd
// phases.
func TestSynthDeterministicAndPhasic(t *testing.T) {
	a, err := Synth("synth:phases=2", 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synth("synth:phases=2", 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Phases) != len(b[i].Phases) {
			t.Fatalf("nondeterministic spawn: %+v vs %+v", a[i], b[i])
		}
		for j := range a[i].Phases {
			if a[i].Phases[j] != b[i].Phases[j] {
				t.Fatalf("thread %d phase %d differs across identical spawns", i, j)
			}
		}
	}
	s, _ := ParseSynth("synth:phases=2")
	base := s.phases()
	if base[1].MemShare <= base[0].MemShare || base[1].WorkingSetDKB <= base[0].WorkingSetDKB {
		t.Fatalf("odd phase does not lean memory-bound: %+v vs %+v", base[0], base[1])
	}
	if base[1].ILP >= base[0].ILP {
		t.Fatalf("odd phase ILP did not drop: %v vs %v", base[1].ILP, base[0].ILP)
	}
}
