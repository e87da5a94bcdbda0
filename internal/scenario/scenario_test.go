package scenario

import (
	"strings"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/workload"
)

// wantErr fails unless err is non-nil and mentions want.
func wantErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %v, want one mentioning %q", what, err, want)
	}
}

func TestPlatform(t *testing.T) {
	p, err := Platform("quad")
	if err != nil || p.NumCores() != 4 {
		t.Fatalf("quad: %v", err)
	}
	p, err = Platform("biglittle")
	if err != nil || p.NumCores() != 8 {
		t.Fatalf("biglittle: %v", err)
	}
	p, err = Platform("scaling:12")
	if err != nil || p.NumCores() != 12 {
		t.Fatalf("scaling: %v", err)
	}
	for _, bad := range []string{"", "mega", "scaling:", "scaling:x", "scaling:0"} {
		if _, err := Platform(bad); err == nil {
			t.Errorf("platform %q accepted", bad)
		}
	}
	_, err = Platform("mega")
	wantErr(t, "mega", err, `scenario: unknown platform "mega" (quad | biglittle | scaling:<n>)`)
}

func TestWorkload(t *testing.T) {
	specs, err := Workload("Mix3", 2, 1)
	if err != nil || len(specs) != 4 { // 2 benchmarks x 2 threads
		t.Fatalf("Mix3: %d specs, %v", len(specs), err)
	}
	specs, err = Workload("canneal", 3, 1)
	if err != nil || len(specs) != 3 {
		t.Fatalf("canneal: %v", err)
	}
	specs, err = Workload("imb:HTMI", 2, 1)
	if err != nil || len(specs) != 2 {
		t.Fatalf("imb:HTMI: %v", err)
	}
	// Short IMB form.
	if _, err := Workload("imb:LM", 1, 1); err != nil {
		t.Fatalf("imb:LM: %v", err)
	}
	specs, err = Workload("synth:phases=1,ins=80,ilp=3,mem=0.3,wsd=384", 2, 1)
	if err != nil || len(specs) != 2 {
		t.Fatalf("synth: %d specs, %v", len(specs), err)
	}
	for _, bad := range []string{"nope", "imb:", "imb:XTMI", "imb:HTMIX", "synth:phases=9", "synth:bogus=1"} {
		if _, err := Workload(bad, 2, 1); err == nil {
			t.Errorf("workload %q accepted", bad)
		}
	}
	_, err = Workload("imb:HTMIX", 2, 1)
	wantErr(t, "imb:HTMIX", err, `scenario: bad IMB code "imb:HTMIX"`)
	_, err = Workload("nope", 2, 1)
	wantErr(t, "nope", err, `unknown benchmark "nope"`)
}

func TestLevel(t *testing.T) {
	for s, want := range map[string]workload.Level{
		"H": workload.High, "m": workload.Medium, "L": workload.Low,
	} {
		got, err := level(s)
		if err != nil || got != want {
			t.Fatalf("level(%q) = %v, %v", s, got, err)
		}
	}
	_, err := level("z")
	wantErr(t, "level z", err, `scenario: unknown IMB level "z"`)
}

func TestBalancer(t *testing.T) {
	quad := arch.QuadHMP()
	bl := arch.OctaBigLittle()
	if b, err := Balancer("vanilla", quad, 1, 1); err != nil || b.Name() != "vanilla-linux" {
		t.Fatalf("vanilla: %v", err)
	}
	if b, err := Balancer("pinned", quad, 1, 1); err != nil || b.Name() != "pinned" {
		t.Fatalf("pinned: %v", err)
	}
	if b, err := Balancer("gts", bl, 1, 1); err != nil || b.Name() != "arm-gts" {
		t.Fatalf("gts: %v", err)
	}
	if b, err := Balancer("iks", bl, 1, 1); err != nil || b.Name() != "linaro-iks" {
		t.Fatalf("iks: %v", err)
	}
	if b, err := Balancer("smartbalance", quad, 1, 1); err != nil || b.Name() != "smartbalance" {
		t.Fatalf("smartbalance: %v", err)
	}
	if _, err := Balancer("gts", quad, 1, 1); err == nil {
		t.Fatal("gts on quad accepted")
	}
	_, err := Balancer("nope", quad, 1, 1)
	wantErr(t, "nope", err, `scenario: unknown balancer "nope" (smartbalance | vanilla | gts | iks | pinned)`)
}

// TestPredictorMemo pins the cache key: equal type sets and seeds share
// one fit, while another seed, another order, or a changed parameter
// under the same name each get their own.
func TestPredictorMemo(t *testing.T) {
	types := arch.BigLittleTypes()
	a, err := Predictor(types, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := Predictor(arch.BigLittleTypes(), 3); b != a {
		t.Error("equal type set and seed trained twice")
	}
	if b, _ := Predictor(types, 4); b == a {
		t.Error("another seed reused the fit")
	}
	if b, _ := Predictor([]arch.CoreType{types[1], types[0]}, 3); b == a {
		t.Error("reordered type set reused the fit")
	}
	tweaked := arch.BigLittleTypes()
	tweaked[0].VoltageV += 0.05
	if b, _ := Predictor(tweaked, 3); b == a {
		t.Error("same names with another voltage reused the fit")
	}
}
