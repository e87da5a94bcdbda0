package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteProm renders the metrics snapshot in the Prometheus text
// exposition format: one # TYPE line per metric family (the key up to
// any label braces) followed by its samples, families in sorted order.
// Histograms expand into cumulative _bucket series plus _sum and
// _count; histogram keys must be label-free for the expansion to be
// well-formed. Counters and gauges registered but never touched render
// as explicit zeros, so "this never happened" is an assertable fact —
// the property sbsweep's TestRunColdWarmIdentical leans on.
func WriteProm(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, m := range tr.Metrics {
		family := promFamily(m.Key)
		if family != lastFamily {
			if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", family, m.Kind); err != nil {
				return err
			}
			lastFamily = family
		}
		switch m.Kind {
		case KindHistogram:
			cum := int64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				if _, err := fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", m.Key, b.Le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%s_sum %s\n", m.Key, formatFloat(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(bw, "%s_count %d\n", m.Key, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(bw, "%s %s\n", m.Key, formatFloat(m.Value)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// promFamily strips a rendered label set from a metric key:
// kernel_events_total{kind="slice"} -> kernel_events_total.
func promFamily(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// Name renders a metric key with one canonical label, e.g.
// Name("kernel_events_total", "kind", "slice") ->
// kernel_events_total{kind="slice"}. Multi-label keys can be built by
// callers directly as long as label order is fixed at every call site.
func Name(family, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", family, label, value)
}
