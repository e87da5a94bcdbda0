package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"smartbalance/internal/analysis"
)

const norandFixture = "../../internal/analysis/testdata/src/norand"

func TestRunFlagsFixtureViolations(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{norandFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d on fixture corpus, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "norand: import of math/rand") {
		t.Errorf("missing norand diagnostic in output:\n%s", out.String())
	}
}

func TestRunAnalyzerDisableFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-norand=false", "-seedflow=false", norandFixture}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d with norand+seedflow disabled, want 0 (out: %s, stderr: %s)",
			code, out.String(), errb.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", norandFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, out.String())
	}
	if len(diags) == 0 || diags[0].Analyzer == "" || diags[0].Line == 0 {
		t.Errorf("JSON diagnostics incomplete: %+v", diags)
	}
}

func TestRunBadPattern(t *testing.T) {
	for args, want := range map[string]int{"./no/such/dir": 2, "-bogus": 2, "-h": 0} {
		var out, errb bytes.Buffer
		if code := run([]string{args}, &out, &errb); code != want {
			t.Errorf("sbvet %s exited %d, want %d", args, code, want)
		}
	}
}

const hotpathFixture = "../../internal/analysis/testdata/src/hotpath"
const allowdupFixture = "../../internal/analysis/testdata/src/allowdup"

// TestRunAllowsText covers the -allows audit surface end to end: the
// hotpath fixture's one justified suppression is listed with its
// analyzer, reason, and count, and the run exits 0.
func TestRunAllowsText(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-allows", hotpathFixture}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "hotpath(fixture: demonstrates a justified suppression)") {
		t.Errorf("missing inventoried suppression in output:\n%s", s)
	}
	if !strings.Contains(s, "1 allow annotation(s)") {
		t.Errorf("missing inventory count in output:\n%s", s)
	}
}

// TestRunAllowsJSON pins the machine-readable inventory: -allows -json
// emits the AllowRecord array verbatim.
func TestRunAllowsJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-allows", "-json", hotpathFixture}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, errb.String())
	}
	var recs []analysis.AllowRecord
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("output is not an AllowRecord array: %v\n%s", err, out.String())
	}
	if len(recs) != 1 || recs[0].Analyzer != "hotpath" || recs[0].Reason == "" {
		t.Errorf("unexpected records: %+v", recs)
	}
}

// TestRunAllowsMalformedFails covers the staleness gate: an empty-reason
// annotation makes -allows exit 1 and name the problem on stderr.
func TestRunAllowsMalformedFails(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-allows", allowdupFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d on malformed annotation, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "malformed or stale annotation(s)") {
		t.Errorf("stderr does not flag the malformed annotation:\n%s", errb.String())
	}
}
