package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

// sampleCollector builds a small, fully deterministic trace exercising
// every feature: meta, all three metric kinds, multiple epochs with
// spans and attrs, one anomaly.
func sampleCollector() *Collector {
	c := New()
	c.SetMeta("platform", "odroid-xu3")
	c.SetMeta("seed", "42")
	c.Counter("migrations_total").Add(3)
	c.Gauge("last_ee").Set(1.25)
	h := c.Histogram("sense_latency_us", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	for e := 1; e <= 3; e++ {
		start := int64(e) * 1_000_000
		c.BeginEpoch(e, start)
		c.Span(PhaseSense, start, 1500, Int("cores", 8))
		c.Span(PhaseMigrate, start+1500, 800,
			Int("thread", 4), Int("from", 0), Int("to", 5), F64("pred_ips", 2.5e9))
	}
	c.Anomaly(3_500_000, AnomalyDegradedEpoch, "5/8 cores degraded")
	return c
}

func TestCollectorNilIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.SetMeta("k", "v")
	c.Counter("x").Inc()
	c.Gauge("g").Set(1)
	c.Histogram("h", []float64{1}).Observe(2)
	c.BeginEpoch(1, 0)
	c.Span("sense", 0, 1)
	c.Anomaly(0, "r", "")
	if got := c.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	if n := len(c.Trace().Epochs); n != 0 {
		t.Fatalf("nil collector trace has %d epochs", n)
	}
	if c.Anomalies() != nil || c.AnomalyReasons() != nil || c.Metrics() != nil {
		t.Fatal("nil collector leaks state")
	}
}

// TestMetricsIsTheTraceSnapshot checks that Metrics returns exactly the
// metrics Trace exports, histograms included.
func TestMetricsIsTheTraceSnapshot(t *testing.T) {
	c := sampleCollector()
	got, want := c.Metrics(), c.Trace().Metrics
	if len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Metrics() = %+v\nTrace().Metrics = %+v", got, want)
	}
}

func TestSpanBeforeBeginEpoch(t *testing.T) {
	c := New()
	c.Span("boot", 5, 1)
	tr := c.Trace()
	if len(tr.Epochs) != 1 || tr.Epochs[0].Epoch != 0 {
		t.Fatalf("want implicit epoch 0, got %+v", tr.Epochs)
	}
}

// TestAnomaliesPointIntoHistory checks that every fired trigger is
// kept, however many fire, and that each names the epoch record open
// when it fired (0 before the first).
func TestAnomaliesPointIntoHistory(t *testing.T) {
	c := New()
	c.Anomaly(5, AnomalyRefusedBurst, "before any epoch")
	for e := 1; e <= 5; e++ {
		c.BeginEpoch(e, int64(e)*100)
		c.Span("sense", int64(e)*100, 1)
	}
	for i := 0; i < 4; i++ {
		c.Anomaly(550, AnomalyNegativeEEGain, "")
	}
	tr := c.Trace()
	if len(tr.Epochs) != 5 {
		t.Fatalf("epochs = %d, want 5", len(tr.Epochs))
	}
	if got := len(tr.Anomalies); got != 5 {
		t.Fatalf("anomalies = %d, want 5", got)
	}
	if a := tr.Anomalies[0]; a.Epoch != 0 || a.Reason != AnomalyRefusedBurst {
		t.Fatalf("first anomaly = %s, want epoch 0 %s", a, AnomalyRefusedBurst)
	}
	for _, a := range tr.Anomalies[1:] {
		if a.Epoch != 5 || a.AtNs != 550 {
			t.Fatalf("anomaly = %s, want epoch 5 at 550ns", a)
		}
	}
	want := []string{AnomalyNegativeEEGain, AnomalyRefusedBurst}
	if got := c.AnomalyReasons(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("reasons = %v, want %v", got, want)
	}
}

func TestCounterMonotone(t *testing.T) {
	c := New()
	ctr := c.Counter("x")
	ctr.Add(2)
	ctr.Add(-5)
	if got := ctr.Value(); got != 2 {
		t.Fatalf("counter = %d, want 2 (negative adds ignored)", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := New()
	h := c.Histogram("h", []float64{100, 10}) // unsorted on purpose
	for _, v := range []float64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	var m Metric
	for _, s := range c.Trace().Metrics {
		if s.Key == "h" {
			m = s
		}
	}
	want := "h histogram count=4 sum=1022 le=10:2 le=100:1 le=+Inf:1"
	if got := m.String(); got != want {
		t.Fatalf("histogram snapshot:\n got %s\nwant %s", got, want)
	}
}

func TestSnapshotSortedAndZeroValued(t *testing.T) {
	c := New()
	c.Counter("zz_touched").Inc()
	c.Counter("aa_untouched") // registered only
	c.Gauge("mm_gauge")
	ms := c.Trace().Metrics
	var keys []string
	for _, m := range ms {
		keys = append(keys, m.Key)
	}
	if got, want := strings.Join(keys, ","), "aa_untouched,mm_gauge,zz_touched"; got != want {
		t.Fatalf("snapshot keys = %s, want %s", got, want)
	}
	if ms[0].Value != 0 {
		t.Fatalf("untouched counter exports %v, want explicit 0", ms[0].Value)
	}
}

func TestTraceDeterministicAcrossCalls(t *testing.T) {
	c := sampleCollector()
	var a, b strings.Builder
	if err := WriteJSONL(&a, c.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, c.Trace()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two Trace() snapshots of the same collector serialise differently")
	}
}
