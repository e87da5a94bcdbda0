package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Metric kinds, as rendered in snapshots and exports.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotone int64 metric. The nil handle (from a disabled
// collector) is a no-op.
type Counter struct {
	name string
	v    int64
}

// Add increments the counter; negative deltas are ignored (counters
// are monotone).
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v += d
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value float64 metric. The nil handle is a no-op.
type Gauge struct {
	name string
	v    float64
}

// Set records the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current value (0 on a nil or never-set handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket float64 distribution: observation counts
// per upper bound (cumulative style is applied at export), plus sum
// and count. Bucket bounds are fixed at registration, keeping exports
// deterministic. The nil handle is a no-op.
type Histogram struct {
	name   string
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []int64   // len(bounds)+1, last is the overflow bucket
	count  int64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Bucket is one exported histogram bucket: the count of observations
// at or below the upper bound (non-cumulative; exporters cumulate
// where their format demands it). Le is the canonically rendered
// upper bound; the overflow bucket renders as "+Inf" (kept as a string
// so the document survives encoding/json, which rejects float
// infinities).
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// Metric is one snapshot entry. Exactly one of the value fields is
// meaningful, selected by Kind.
type Metric struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value"`
	// Buckets/Count/Sum carry histograms.
	Buckets []Bucket `json:"buckets,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
}

// String renders the metric canonically.
func (m Metric) String() string {
	switch m.Kind {
	case KindHistogram:
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s %s count=%d sum=%s", m.Key, m.Kind, m.Count, formatFloat(m.Sum))
		for _, b := range m.Buckets {
			fmt.Fprintf(&sb, " le=%s:%d", b.Le, b.Count)
		}
		return sb.String()
	default:
		return fmt.Sprintf("%s %s %s", m.Key, m.Kind, formatFloat(m.Value))
	}
}

// Registry holds one collector's metrics. It is created by the
// collector; external packages interact through handles.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// newRegistry builds an empty registry.
func newRegistry() Registry {
	return Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero on first use.
// Registration alone makes the metric appear in snapshots, so "this
// never happened" is an observable zero rather than an absence.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name} //sbvet:allow hotpath(first-use registration; the handle is cached in the registry map for every later epoch)
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name} //sbvet:allow hotpath(first-use registration; the handle is cached in the registry map for every later epoch)
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bounds on first use. Bounds are defensively copied and sorted;
// later calls reuse the original bounds regardless of the argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	bs := append([]float64(nil), bounds...) //sbvet:allow hotpath(first-use registration; the handle is cached in the registry map for every later epoch)
	sort.Float64s(bs)
	h := &Histogram{name: name, bounds: bs, counts: make([]int64, len(bs)+1)} //sbvet:allow hotpath(first-use registration; the handle is cached in the registry map for every later epoch)
	r.hists[name] = h
	return h
}

// Snapshot renders every metric, sorted by key (counters, gauges, and
// histograms share one namespace in the output; a key collision across
// kinds is a caller bug and simply yields adjacent entries).
func (r *Registry) Snapshot() []Metric {
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, name := range sortedKeys(r.counters) {
		out = append(out, Metric{Key: name, Kind: KindCounter, Value: float64(r.counters[name].v)})
	}
	for _, name := range sortedKeys(r.gauges) {
		out = append(out, Metric{Key: name, Kind: KindGauge, Value: r.gauges[name].v})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		m := Metric{Key: name, Kind: KindHistogram, Count: h.count, Sum: h.sum}
		for i, b := range h.bounds {
			m.Buckets = append(m.Buckets, Bucket{Le: formatFloat(b), Count: h.counts[i]})
		}
		m.Buckets = append(m.Buckets, Bucket{Le: "+Inf", Count: h.counts[len(h.bounds)]})
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
