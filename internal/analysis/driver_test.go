package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean is the CI invariant behind `sbvet ./...`: the whole
// repository, analyzed with the full default suite, must produce zero
// diagnostics. Any new violation either gets fixed or gets an
// annotated //sbvet:allow with a reason.
func TestRepoIsClean(t *testing.T) {
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo violation: %s", d)
	}
}

func TestFindModule(t *testing.T) {
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if path != "smartbalance" {
		t.Errorf("module path = %q, want smartbalance", path)
	}
	if filepath.Base(root) == "" {
		t.Error("empty module root")
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var sawAnalysis bool
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("pattern expansion descended into testdata: %s", d)
		}
		if filepath.Base(d) == "analysis" {
			sawAnalysis = true
		}
	}
	if !sawAnalysis {
		t.Error("pattern expansion missed internal/analysis itself")
	}
	if len(dirs) < 20 {
		t.Errorf("suspiciously few packages found: %d", len(dirs))
	}
}

func TestLoadDirOutsideModuleRejected(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir(filepath.Join(l.ModuleRoot, "..")); err == nil {
		t.Error("LoadDir accepted a directory outside the module")
	}
}

// TestAnalyzerNamesRegistered keeps the allow-annotation registry in
// sync with the shipped suite.
func TestAnalyzerNamesRegistered(t *testing.T) {
	for _, a := range All() {
		if !knownAnalyzerNames[a.Name] {
			t.Errorf("analyzer %q missing from knownAnalyzerNames; its allow annotations would be rejected", a.Name)
		}
	}
	if len(All()) != 6 {
		t.Errorf("suite has %d analyzers, want 6", len(All()))
	}
}

// TestLoaderCachesPackages checks that a package imported by several
// others is type-checked once.
func TestLoaderCachesPackages(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.LoadDir(filepath.Join(l.ModuleRoot, "internal", "rng"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.LoadDir(filepath.Join(l.ModuleRoot, "internal", "rng"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("LoadDir re-loaded a cached package")
	}
}

// TestCollectAllowsFixture pins the -allows inventory over the hotpath
// fixture: the one justified suppression comes back as a well-formed
// record (file, line, analyzer, reason) and nothing is flagged
// malformed.
func TestCollectAllowsFixture(t *testing.T) {
	recs, bad, err := CollectAllows(".", []string{filepath.Join("testdata", "src", "hotpath")})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed annotations: %v", bad)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d allow records, want 1: %v", len(recs), recs)
	}
	r := recs[0]
	if r.Analyzer != "hotpath" {
		t.Errorf("analyzer = %q, want hotpath", r.Analyzer)
	}
	if r.Reason != "fixture: demonstrates a justified suppression" {
		t.Errorf("reason = %q", r.Reason)
	}
	if !strings.HasSuffix(r.File, "hot.go") || r.Line != 30 {
		t.Errorf("position = %s:%d, want .../hot.go:30", r.File, r.Line)
	}
}

// TestCollectAllowsFlagsEmptyReason covers the staleness-gate half of
// the inventory: the allowdup fixture's empty-reason annotation must
// come back as a malformed-annotation diagnostic, not a record.
func TestCollectAllowsFlagsEmptyReason(t *testing.T) {
	recs, bad, err := CollectAllows(".", []string{filepath.Join("testdata", "src", "allowdup")})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("empty-reason annotation inventoried as well-formed: %v", recs)
	}
	if len(bad) != 1 {
		t.Fatalf("got %d malformed diagnostics, want 1: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0].Message, "reason") {
		t.Errorf("diagnostic does not mention the missing reason: %s", bad[0])
	}
}

// TestCollectAllowsRepoInventory is the suppression-hygiene invariant
// over the real repository: every //sbvet:allow carries a non-empty
// reason and names a registered analyzer (no malformed or stale
// annotations), and the records come back position-sorted — the
// contract `sbvet -allows` audits in CI.
func TestCollectAllowsRepoInventory(t *testing.T) {
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	recs, bad, err := CollectAllows(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range bad {
		t.Errorf("malformed or stale annotation: %s", d)
	}
	if len(recs) == 0 {
		t.Fatal("repo inventory is empty; the hot-path contract suppressions should appear")
	}
	for _, r := range recs {
		if r.Reason == "" {
			t.Errorf("%s:%d: allow without a reason", r.File, r.Line)
		}
	}
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("records not position-sorted: %s:%d before %s:%d", a.File, a.Line, b.File, b.Line)
		}
	}
}
