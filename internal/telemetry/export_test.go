package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenExporters drives the golden-file check for every exporter: the
// sample trace must render byte-identically to the committed fixture.
var goldenExporters = []struct {
	name   string
	golden string
	write  func(*bytes.Buffer, *Trace) error
}{
	{"jsonl", "sample.jsonl.golden", func(b *bytes.Buffer, tr *Trace) error { return WriteJSONL(b, tr) }},
	{"chrome", "sample.chrome.golden", func(b *bytes.Buffer, tr *Trace) error { return WriteChrome(b, tr) }},
	{"prom", "sample.prom.golden", func(b *bytes.Buffer, tr *Trace) error { return WriteProm(b, tr) }},
}

func TestExportersGolden(t *testing.T) {
	tr := sampleCollector().Trace()
	for _, tc := range goldenExporters {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s export drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, path, buf.String(), want)
			}
		})
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	orig := sampleCollector().Trace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := FirstDivergence(orig, back); d != nil {
		t.Fatalf("round trip diverged: %s", d)
	}
	var again bytes.Buffer
	if err := WriteJSONL(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("write -> read -> write is not byte-stable")
	}
}

func TestReadJSONLRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "no meta line"},
		{"wrong schema", `{"t":"meta","schema":"other-v9"}` + "\n", "unsupported schema"},
		{"garbage", "not json\n", "line 1"},
		{"v1 schema", `{"t":"meta","schema":"sbtelemetry-v1"}` + "\n", "unsupported schema"},
		{"unknown type", `{"t":"meta","schema":"` + Schema + `"}` + "\n" + `{"t":"mystery"}` + "\n", "unknown line type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJSONL(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleCollector().Trace()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// 4 metadata + 1 run_meta + 3 epochs * 3 events + 1 anomaly.
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	phases := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			phases++
		}
	}
	if phases != 6 {
		t.Fatalf("chrome export has %d complete events, want 6 spans", phases)
	}
}

func TestPromExportShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, sampleCollector().Trace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE migrations_total counter",
		"migrations_total 3",
		"# TYPE last_ee gauge",
		"last_ee 1.25",
		"# TYPE sense_latency_us histogram",
		`sense_latency_us_bucket{le="10"} 1`,
		`sense_latency_us_bucket{le="100"} 2`,
		`sense_latency_us_bucket{le="+Inf"} 3`,
		"sense_latency_us_sum 555",
		"sense_latency_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom export missing %q:\n%s", want, out)
		}
	}
}

func TestPromFamilyGroupsLabelledSeries(t *testing.T) {
	c := New()
	c.Counter(Name("events_total", "kind", "slice")).Add(2)
	c.Counter(Name("events_total", "kind", "wake")).Add(1)
	var buf bytes.Buffer
	if err := WriteProm(&buf, c.Trace()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "# TYPE events_total counter"); got != 1 {
		t.Fatalf("TYPE line emitted %d times for one family:\n%s", got, buf.String())
	}
}
