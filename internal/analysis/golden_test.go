package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

const fixtureModPrefix = "smartbalance/internal/analysis/testdata/src/"

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// goldenCases pairs each analyzer with its fixture package. The golden
// files record the exact expected diagnostics (file:line: analyzer:
// message); negative cases are asserted by their absence.
var goldenCases = []struct {
	name string
	an   func() *Analyzer
}{
	{"wallclock", func() *Analyzer { return Wallclock([]string{fixtureModPrefix + "wallclock"}) }},
	{"norand", NoRand},
	{"floateq", FloatEq},
	{"maporder", MapOrder},
	{"seedflow", SeedFlow},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadFixture(t, tc.name)
			diags := Analyze(pkg, []*Analyzer{tc.an()})
			if len(diags) == 0 {
				t.Fatalf("%s: fixture produced no diagnostics; every analyzer needs a positive case", tc.name)
			}
			var sb strings.Builder
			for _, d := range diags {
				rel, err := filepath.Rel(pkg.Dir, d.File)
				if err != nil {
					t.Fatal(err)
				}
				d.File = filepath.ToSlash(filepath.Join("src", tc.name, rel))
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			got := sb.String()
			golden := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestWallclockOutsideSimPackages is the wallclock negative case: the
// same fixture, analyzed under the default simulation-package list
// (which does not contain the fixture path), must yield no wallclock
// findings.
func TestWallclockOutsideSimPackages(t *testing.T) {
	pkg := loadFixture(t, "wallclock")
	diags := Analyze(pkg, []*Analyzer{Wallclock(nil)})
	for _, d := range diags {
		if d.Analyzer == "wallclock" {
			t.Errorf("unexpected wallclock diagnostic outside simulation packages: %s", d)
		}
	}
}

// TestSuppressionCounted checks that valid allow annotations suppress
// (rather than drop) diagnostics: the two annotated time.Now calls in
// the fixture must be counted as suppressed.
func TestSuppressionCounted(t *testing.T) {
	pkg := loadFixture(t, "wallclock")
	pass := newPass(pkg)
	pass.analyzer = "wallclock"
	Wallclock([]string{fixtureModPrefix + "wallclock"}).Run(pass)
	if pass.Suppressed != 3 {
		t.Errorf("Suppressed = %d, want 3 (the three validly annotated calls)", pass.Suppressed)
	}
}

// TestMalformedAnnotationStillFires checks the fail-safe: an allow
// annotation without a reason must not suppress, and must itself be
// reported.
func TestMalformedAnnotationStillFires(t *testing.T) {
	pkg := loadFixture(t, "wallclock")
	diags := Analyze(pkg, []*Analyzer{Wallclock([]string{fixtureModPrefix + "wallclock"})})
	var sawEmptyReason, sawWallclockOnAnnotatedLine bool
	for _, d := range diags {
		if d.Analyzer == "sbvet" && strings.Contains(d.Message, "empty reason") {
			sawEmptyReason = true
		}
		if d.Analyzer == "wallclock" && strings.Contains(d.Message, "time.Now") {
			sawWallclockOnAnnotatedLine = true
		}
	}
	if !sawEmptyReason {
		t.Error("empty-reason annotation was not reported")
	}
	if !sawWallclockOnAnnotatedLine {
		t.Error("malformed annotation suppressed the wallclock diagnostic")
	}
}
