// Package telemetry is the deterministic observability layer for the
// sense→predict→balance loop: a metrics registry (counters, gauges,
// fixed-bucket histograms), epoch-scoped spans timestamped in simulated
// nanoseconds, and anomaly records. The epoch history is the one record
// of a run: every epoch is kept in full, and an anomaly is a record
// (epoch, time, reason, detail) that points into it. Exporters render
// the collected trace as JSONL (the canonical interchange format,
// readable back by ReadJSONL), Chrome trace-event JSON (loadable in
// chrome://tracing), and Prometheus-style text.
//
// # Determinism contract (DESIGN.md §10)
//
// Everything this package emits is a pure function of the simulated
// run: timestamps are simulated nanoseconds (wall clock never enters —
// the sbvet wallclock invariant covers this package), map-backed state
// is exported in sorted key order, and span order within an epoch is
// the order of emission, which simulation code keeps deterministic.
// Two runs with the same seed therefore produce byte-identical
// exports.
//
// # Disabled cost contract
//
// A nil *Collector is the disabled state: every method on it — and on
// the nil metric handles it returns — is a safe no-op that performs no
// allocation, so instrumented hot paths pay a pointer test and nothing
// else when telemetry is off. Callers that build attribute lists must
// still guard the construction with Enabled(), since variadic argument
// slices are allocated by the caller.
//
// Collectors are not safe for concurrent use: they inherit the
// single-threadedness of the kernel feeding them. Parallel code either
// records after its workers finish, from results held in canonical
// order (a sweep writes its job telemetry from Execute's results), or
// gives each worker a collector of its own and reads them back in a
// fixed order (the fleet's per-node collectors, in node-ID order).
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
)

// Schema identifies the telemetry interchange format; it participates
// in every JSONL export and readers reject other schemas.
const Schema = "sbtelemetry-v2"

// Phase names for the spans the SmartBalance controller emits. Any
// string is a valid span phase; these are the conventional ones.
const (
	PhaseSense   = "sense"
	PhasePredict = "predict"
	PhaseDecide  = "decide"
	PhaseMigrate = "migrate"
)

// Anomaly reasons the controller's triggers record. Any string is a
// valid reason; these are the conventional ones.
const (
	AnomalyNegativeEEGain = "negative-ee-gain"
	AnomalyDegradedEpoch  = "majority-degraded"
	AnomalyRefusedBurst   = "refused-migration-burst"
)

// Attr is one structured span attribute. Values are pre-rendered to
// canonical strings by the typed constructors, which keeps spans
// trivially comparable and every export format deterministic.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{K: k, V: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { //sbvet:allow hotpath(attr values pre-render to canonical strings — the determinism contract; one short string per recorded attribute)
	return Attr{K: k, V: strconv.FormatInt(v, 10)}
}

// F64 builds a float attribute with the shortest exact rendering.
func F64(k string, v float64) Attr { //sbvet:allow hotpath(attr values pre-render to canonical strings — the determinism contract; one short string per recorded attribute)
	return Attr{K: k, V: formatFloat(v)}
}

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{K: k, V: strconv.FormatBool(v)} }

// formatFloat renders a float canonically (shortest form that
// round-trips, same across platforms).
func formatFloat(v float64) string { //sbvet:allow hotpath(canonical float rendering — the determinism contract; one short string per recorded value)
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Span is one phase of one epoch. StartNs/DurNs are simulated
// nanoseconds; a zero-duration span marks an instant.
type Span struct {
	Epoch   int    `json:"epoch"`
	Seq     int    `json:"seq"`
	Phase   string `json:"phase"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// String renders the span canonically — the unit of comparison for
// trace diffing.
func (s Span) String() string {
	out := fmt.Sprintf("epoch=%d seq=%d phase=%s start=%dns dur=%dns",
		s.Epoch, s.Seq, s.Phase, s.StartNs, s.DurNs)
	for _, a := range s.Attrs {
		out += " " + a.K + "=" + a.V
	}
	return out
}

// EpochRecord groups the spans of one epoch.
type EpochRecord struct {
	Epoch   int    `json:"epoch"`
	StartNs int64  `json:"start_ns"`
	Spans   []Span `json:"spans,omitempty"`
}

// Anomaly is one fired trigger. Epoch names the epoch record it
// points into.
type Anomaly struct {
	Epoch  int    `json:"epoch"`
	AtNs   int64  `json:"at_ns"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

// String renders the anomaly canonically.
func (a Anomaly) String() string {
	out := fmt.Sprintf("epoch=%d at=%dns reason=%s", a.Epoch, a.AtNs, a.Reason)
	if a.Detail != "" {
		out += " detail=" + a.Detail
	}
	return out
}

// Collector accumulates one run's telemetry: metadata, metrics, epoch
// spans and anomalies. The nil Collector is the zero-cost disabled
// state; see the package comment.
type Collector struct {
	meta map[string]string
	reg  Registry

	epochs []EpochRecord // closed epochs, oldest first
	cur    *EpochRecord
	curBuf EpochRecord // backing storage for cur, reused across epochs
	seq    int         // next span sequence number within cur

	// attrArena is the current attribute chunk. Span copies every
	// attribute list into it so callers may reuse (and overwrite) their
	// own attr buffers across epochs; retained spans keep views into
	// full chunks, which are replaced — never reallocated — when
	// exhausted, so those views stay valid.
	attrArena []Attr

	anomalies []Anomaly
}

// New builds an enabled collector.
func New() *Collector {
	return &Collector{
		meta: make(map[string]string),
		reg:  newRegistry(),
	}
}

// Enabled reports whether the collector records anything; nil-safe.
func (c *Collector) Enabled() bool { return c != nil }

// SetMeta records one run-level metadata pair (platform, workload,
// seed, ...). Keys export in sorted order.
func (c *Collector) SetMeta(k, v string) {
	if c == nil {
		return
	}
	c.meta[k] = v
}

// Counter returns the named counter handle, creating it on first use.
// Returns nil on a nil collector; nil handles are no-op.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	return c.reg.Counter(name)
}

// Gauge returns the named gauge handle, creating it on first use.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	return c.reg.Gauge(name)
}

// Histogram returns the named fixed-bucket histogram handle, creating
// it with the given upper bounds on first use (later calls reuse the
// original bounds).
func (c *Collector) Histogram(name string, bounds []float64) *Histogram {
	if c == nil {
		return nil
	}
	return c.reg.Histogram(name, bounds)
}

// BeginEpoch closes the current epoch record (if any) and starts a new
// one. Each epoch has one announcer: in a kernel run it is the kernel
// adapter (KernelObserver), never the balancer it drives.
func (c *Collector) BeginEpoch(epoch int, nowNs int64) {
	if c == nil {
		return
	}
	if c.cur != nil {
		c.epochs = append(c.epochs, *c.cur) //sbvet:allow hotpath(epoch history is retained by design; one record append per epoch)
	}
	c.curBuf = EpochRecord{Epoch: epoch, StartNs: nowNs}
	c.cur = &c.curBuf
	c.seq = 0
}

// Span appends one span to the current epoch. Spans emitted before any
// BeginEpoch land in an implicit epoch 0 record.
//
//sbvet:hotpath
func (c *Collector) Span(phase string, startNs, durNs int64, attrs ...Attr) {
	if c == nil {
		return
	}
	if c.cur == nil {
		c.curBuf = EpochRecord{Epoch: 0, StartNs: startNs}
		c.cur = &c.curBuf
		c.seq = 0
	}
	c.cur.Spans = append(c.cur.Spans, Span{ //sbvet:allow hotpath(the epoch history retains every span; a fresh spans slice per epoch is inherent to retention)
		Epoch:   c.cur.Epoch,
		Seq:     c.seq,
		Phase:   phase,
		StartNs: startNs,
		DurNs:   durNs,
		Attrs:   c.internAttrs(attrs),
	})
	c.seq++
}

// attrChunkSize is the attribute-arena chunk capacity; one chunk
// allocation amortises over this many retained attributes.
const attrChunkSize = 256

// internAttrs copies attrs into the collector's arena and returns a
// stable full-capacity view, so callers keep ownership of (and may
// overwrite) their argument buffer. Chunks are replaced when exhausted,
// never grown in place, so earlier views stay valid.
func (c *Collector) internAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	if cap(c.attrArena)-len(c.attrArena) < len(attrs) {
		n := attrChunkSize
		if len(attrs) > n {
			n = len(attrs)
		}
		c.attrArena = make([]Attr, 0, n) //sbvet:allow hotpath(arena chunk; one allocation amortises over attrChunkSize retained attributes)
	}
	start := len(c.attrArena)
	c.attrArena = append(c.attrArena, attrs...) //sbvet:allow hotpath(cannot grow — the guard above replaced the chunk when remaining capacity was short)
	return c.attrArena[start:len(c.attrArena):len(c.attrArena)]
}

// Anomaly records a fired trigger against the open epoch record (0
// before the first).
func (c *Collector) Anomaly(atNs int64, reason, detail string) {
	if c == nil {
		return
	}
	epoch := 0
	if c.cur != nil {
		epoch = c.cur.Epoch
	}
	c.anomalies = append(c.anomalies, Anomaly{Epoch: epoch, AtNs: atNs, Reason: reason, Detail: detail}) //sbvet:allow hotpath(anomalies are rare by definition; the list is retained for export)
}

// Anomalies returns the recorded anomalies in order. The slice is the
// collector's own, so reading it costs nothing: callers must not
// modify it, and an append to it copies.
func (c *Collector) Anomalies() []Anomaly {
	if c == nil {
		return nil
	}
	return c.anomalies[:len(c.anomalies):len(c.anomalies)]
}

// AnomalyReasons returns the distinct anomaly reasons recorded, sorted
// — the summary consumers that only care *whether* a class of anomaly
// fired (the adversarial hunt's anomaly objective, report rollups) key
// on. Nil-safe like every other read.
func (c *Collector) AnomalyReasons() []string {
	if c == nil || len(c.anomalies) == 0 {
		return nil
	}
	seen := make(map[string]bool, 4)
	for i := range c.anomalies {
		seen[c.anomalies[i].Reason] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Metrics snapshots the registry alone: every metric, sorted by key,
// equal to Trace().Metrics without copying the epoch history. Nil on a
// nil collector.
func (c *Collector) Metrics() []Metric {
	if c == nil {
		return nil
	}
	return c.reg.Snapshot()
}

// Trace snapshots everything collected so far into an export-ready
// document. The in-progress epoch is included; collection may
// continue afterwards.
func (c *Collector) Trace() *Trace {
	if c == nil {
		return &Trace{Meta: map[string]string{"schema": Schema}}
	}
	meta := make(map[string]string, len(c.meta)+1)
	for k, v := range c.meta {
		meta[k] = v
	}
	meta["schema"] = Schema
	epochs := make([]EpochRecord, 0, len(c.epochs)+1)
	for _, e := range c.epochs {
		e.Spans = append([]Span(nil), e.Spans...)
		epochs = append(epochs, e)
	}
	if c.cur != nil {
		e := *c.cur
		e.Spans = append([]Span(nil), e.Spans...)
		epochs = append(epochs, e)
	}
	return &Trace{
		Meta:      meta,
		Epochs:    epochs,
		Metrics:   c.Metrics(),
		Anomalies: append([]Anomaly(nil), c.anomalies...),
	}
}

// sortedKeys returns the map's keys in sorted order. Snapshots walk
// metric maps through it, so handle creation order (and with it
// nothing observable) stays deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Trace is the export-ready snapshot of one collector: the document
// every exporter renders and ReadJSONL reconstructs.
type Trace struct {
	Meta      map[string]string
	Epochs    []EpochRecord
	Metrics   []Metric
	Anomalies []Anomaly
}
