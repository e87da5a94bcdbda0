package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"smartbalance/internal/telemetry"
)

// synthTasks builds n synthetic jobs whose payloads are valid Outcome
// encodings — heavy scenario runs are not needed to exercise the
// engine's telemetry path.
func synthTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task{
			Key: fmt.Sprintf("job-%02d", i),
			Run: func() ([]byte, error) {
				if i%5 == 4 {
					return nil, errors.New("synthetic failure")
				}
				return json.Marshal(Outcome{EnergyEff: 1e9 * float64(i+1)})
			},
		}
	}
	return tasks
}

// sweepTrace runs the synthetic sweep with the given worker count and
// returns its telemetry's canonical JSONL bytes.
func sweepTrace(t *testing.T, workers int) []byte {
	t.Helper()
	results, err := Execute(synthTasks(12), Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	RecordJobs(tel, results)
	RecordTelemetry(tel, results, nil)
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, tel.Trace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepTelemetryParallelEqualsSerial is the telemetry-equivalence
// guarantee: the trace of a parallel sweep is byte-identical to
// a serial one, for several worker counts.
func TestSweepTelemetryParallelEqualsSerial(t *testing.T) {
	serial := sweepTrace(t, 1)
	for _, workers := range []int{2, 4, 8} {
		if par := sweepTrace(t, workers); !bytes.Equal(serial, par) {
			a, _ := telemetry.ReadJSONL(bytes.NewReader(serial))
			b, _ := telemetry.ReadJSONL(bytes.NewReader(par))
			t.Fatalf("workers=%d trace differs from serial: %v", workers, telemetry.FirstDivergence(a, b))
		}
	}
}

func TestSweepTelemetryJobAccounting(t *testing.T) {
	results, err := Execute(synthTasks(12), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	RecordJobs(tel, results)
	RecordTelemetry(tel, results, nil)
	if got := tel.Counter("sweep_jobs_total").Value(); got != 12 {
		t.Fatalf("sweep_jobs_total = %d, want 12", got)
	}
	if got := tel.Counter("sweep_jobs_failed_total").Value(); got != 2 {
		t.Fatalf("sweep_jobs_failed_total = %d, want 2 (indices 4 and 9)", got)
	}
	if got := tel.Counter("sweep_jobs_executed_total").Value(); got != 10 {
		t.Fatalf("sweep_jobs_executed_total = %d, want 10", got)
	}
	tr := tel.Trace()
	if len(tr.Epochs) != 12 {
		t.Fatalf("epochs = %d, want one per job", len(tr.Epochs))
	}
	for i, e := range tr.Epochs {
		if e.Epoch != i+1 || len(e.Spans) != 1 || e.Spans[0].Phase != "job" {
			t.Fatalf("epoch[%d] = %+v, want epoch %d with one job span", i, e, i+1)
		}
		want := []telemetry.Attr{telemetry.Str("key", results[i].Key), telemetry.Str("status", "done")}
		if i%5 == 4 {
			want[1] = telemetry.Str("status", "failed")
		}
		if !reflect.DeepEqual(e.Spans[0].Attrs, want) {
			t.Fatalf("epoch[%d] attrs = %v, want %v", i, e.Spans[0].Attrs, want)
		}
	}
	// The EE histogram saw every successful outcome.
	want := "sweep_scenario_ee"
	for _, m := range tr.Metrics {
		if m.Key == want {
			if m.Count != 10 {
				t.Fatalf("%s count = %d, want 10", want, m.Count)
			}
			return
		}
	}
	t.Fatalf("metric %s missing", want)
}

func TestSweepTelemetryCacheCounters(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mkTasks := func() []Task {
		tasks := make([]Task, 6)
		for i := 0; i < 6; i++ {
			i := i
			tasks[i] = Task{
				Key:         fmt.Sprintf("job-%d", i),
				Fingerprint: []byte(fmt.Sprintf("fp-%d", i)),
				Run:         func() ([]byte, error) { return json.Marshal(Outcome{EnergyEff: 2e9}) },
			}
		}
		return tasks
	}
	results, err := Execute(mkTasks(), Options{Workers: 3, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cold := telemetry.New()
	RecordJobs(cold, results)
	RecordTelemetry(cold, results, cache)
	if got := cold.Counter("sweep_cache_misses_total").Value(); got != 6 {
		t.Fatalf("cold misses = %d, want 6", got)
	}
	if got := cold.Counter("sweep_jobs_cached_total").Value(); got != 0 {
		t.Fatalf("cold cached jobs = %d, want 0", got)
	}

	// Warm run with a fresh cache handle: zero misses, all jobs cached —
	// the property sbsweep's TestRunColdWarmIdentical asserts from the
	// Prometheus export.
	warmCache, err := OpenCache(cache.Dir())
	if err != nil {
		t.Fatal(err)
	}
	results, err = Execute(mkTasks(), Options{Workers: 3, Cache: warmCache})
	if err != nil {
		t.Fatal(err)
	}
	warm := telemetry.New()
	RecordJobs(warm, results)
	RecordTelemetry(warm, results, warmCache)
	if got := warm.Counter("sweep_cache_misses_total").Value(); got != 0 {
		t.Fatalf("warm misses = %d, want 0", got)
	}
	if got := warm.Counter("sweep_cache_hits_total").Value(); got != 6 {
		t.Fatalf("warm hits = %d, want 6", got)
	}
	if got := warm.Counter("sweep_jobs_cached_total").Value(); got != 6 {
		t.Fatalf("warm cached jobs = %d, want 6", got)
	}
}

// TestSweepTelemetryDisabledIsFree pins the no-telemetry path: both
// passes over a nil collector are no-ops that must not panic.
func TestSweepTelemetryDisabledIsFree(t *testing.T) {
	results, err := Execute(synthTasks(5), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	RecordJobs(nil, results)
	RecordTelemetry(nil, results, nil)
	if FirstError(results) == nil {
		t.Fatal("synthetic failure lost")
	}
}
