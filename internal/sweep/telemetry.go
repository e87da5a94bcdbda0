package sweep

import (
	"smartbalance/internal/telemetry"
)

// eeBuckets are the fixed upper bounds of the sweep-level
// energy-efficiency histogram (instructions per joule), matching the
// controller's per-epoch distribution so the two are comparable.
var eeBuckets = []float64{1e8, 3e8, 1e9, 3e9, 1e10, 3e10, 1e11}

// RecordJobs writes a finished sweep's job telemetry into c in one
// pass over results: result i becomes epoch i+1, starting at i+1 (the
// sweep has no simulated clock of its own, and wall time would make
// parallel and serial traces diverge), holding one "job" span with the
// job's key and status, and counts toward sweep_jobs_total plus one of
// the executed, cached or failed counters. Results come from Execute
// in canonical job order, so the trace is identical for any worker
// count and schedule. Call it once, after Execute returns.
func RecordJobs(c *telemetry.Collector, results []Result) {
	if !c.Enabled() {
		return
	}
	for i := range results {
		r := &results[i]
		status, counter := StatusDone, "sweep_jobs_executed_total"
		switch {
		case r.Err != nil:
			status, counter = StatusFailed, "sweep_jobs_failed_total"
		case r.Cached:
			status, counter = StatusCached, "sweep_jobs_cached_total"
		}
		at := int64(i + 1)
		c.BeginEpoch(i+1, at)
		c.Span("job", at, 0,
			telemetry.Str("key", r.Key),
			telemetry.Str("status", status.String()))
		c.Counter("sweep_jobs_total").Inc()
		c.Counter(counter).Inc()
	}
}

// RecordTelemetry folds a finished sweep's outcome-level telemetry
// into c: the cache's traffic statistics as counters (explicit zeros
// when cache is nil, so "no misses" is assertable either way) and each
// decodable scenario outcome's energy efficiency into a histogram,
// walking results in canonical job order so the export is identical
// for any worker count. Call it once, after Execute returns.
func RecordTelemetry(c *telemetry.Collector, results []Result, cache *Cache) {
	if !c.Enabled() {
		return
	}
	var st CacheStats
	if cache != nil {
		st = cache.Stats()
	}
	c.Counter("sweep_cache_hits_total").Add(int64(st.Hits))
	c.Counter("sweep_cache_misses_total").Add(int64(st.Misses))
	c.Counter("sweep_cache_writes_total").Add(int64(st.Writes))
	c.Counter("sweep_cache_write_errors_total").Add(int64(st.WriteErrs))
	c.Counter("sweep_cache_corrupt_total").Add(int64(st.Corrupt))

	h := c.Histogram("sweep_scenario_ee", eeBuckets)
	for i := range results {
		if results[i].Err != nil || results[i].Data == nil {
			continue
		}
		out, err := DecodeOutcome(results[i].Data)
		if err != nil {
			continue
		}
		h.Observe(out.EnergyEff)
	}
}
