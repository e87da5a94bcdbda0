package telemetry

import "fmt"

// Divergence localises the first difference between two traces — the
// bisection primitive behind `sbtrace diff`: given two runs that
// should have been identical, it names the first epoch (and span)
// where they part ways.
type Divergence struct {
	// Kind classifies where the difference lives: "epoch" (the usual
	// case — a span or epoch record differs), "metrics", "anomalies",
	// or "meta" (only when everything timed is identical).
	Kind string
	// Epoch is the first divergent epoch (meaningful for kind "epoch"
	// and "anomalies").
	Epoch int
	// Detail is a human-readable a-vs-b description.
	Detail string
}

// String renders the divergence.
func (d *Divergence) String() string {
	switch d.Kind {
	case "epoch", "anomalies":
		return fmt.Sprintf("first divergent epoch %d (%s): %s", d.Epoch, d.Kind, d.Detail)
	default:
		return fmt.Sprintf("%s diverge: %s", d.Kind, d.Detail)
	}
}

// FirstDivergence compares two traces and returns the first point
// where they differ, or nil when they are identical. Epochs are
// compared first (in order — the earliest divergent epoch wins), then
// metrics, then anomalies, then metadata; so two runs that differ only
// in labelling (e.g. an operator note in the meta) still compare their
// timelines, and a genuine behavioural fork is always reported at the
// epoch where it first shows.
func FirstDivergence(a, b *Trace) *Divergence {
	if d := diffEpochs(a.Epochs, b.Epochs); d != nil {
		return d
	}
	if d := diffMetrics(a.Metrics, b.Metrics); d != nil {
		return d
	}
	if d := diffAnomalies(a.Anomalies, b.Anomalies); d != nil {
		return d
	}
	if d := diffMeta(a.Meta, b.Meta); d != nil {
		return d
	}
	return nil
}

// diffEpochs finds the first differing epoch record.
func diffEpochs(as, bs []EpochRecord) *Divergence {
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		ea, eb := as[i], bs[i]
		if ea.Epoch != eb.Epoch || ea.StartNs != eb.StartNs {
			return &Divergence{Kind: "epoch", Epoch: minEpoch(ea.Epoch, eb.Epoch),
				Detail: fmt.Sprintf("epoch record %d vs %d (start %dns vs %dns)", ea.Epoch, eb.Epoch, ea.StartNs, eb.StartNs)}
		}
		m := len(ea.Spans)
		if len(eb.Spans) < m {
			m = len(eb.Spans)
		}
		for j := 0; j < m; j++ {
			sa, sb := ea.Spans[j].String(), eb.Spans[j].String()
			if sa != sb {
				return &Divergence{Kind: "epoch", Epoch: ea.Epoch,
					Detail: fmt.Sprintf("span %d:\n  a: %s\n  b: %s", j, sa, sb)}
			}
		}
		if len(ea.Spans) != len(eb.Spans) {
			return &Divergence{Kind: "epoch", Epoch: ea.Epoch,
				Detail: fmt.Sprintf("span count %d vs %d", len(ea.Spans), len(eb.Spans))}
		}
	}
	if len(as) != len(bs) {
		extra := as
		if len(bs) > len(as) {
			extra = bs
		}
		return &Divergence{Kind: "epoch", Epoch: extra[n].Epoch,
			Detail: fmt.Sprintf("epoch count %d vs %d", len(as), len(bs))}
	}
	return nil
}

// diffMetrics finds the first differing metric in the sorted
// snapshots.
func diffMetrics(as, bs []Metric) *Divergence {
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		sa, sb := as[i].String(), bs[i].String()
		if sa != sb {
			return &Divergence{Kind: "metrics",
				Detail: fmt.Sprintf("\n  a: %s\n  b: %s", sa, sb)}
		}
	}
	if len(as) != len(bs) {
		return &Divergence{Kind: "metrics",
			Detail: fmt.Sprintf("metric count %d vs %d", len(as), len(bs))}
	}
	return nil
}

// diffAnomalies finds the first differing anomaly.
func diffAnomalies(as, bs []Anomaly) *Divergence {
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		sa, sb := as[i].String(), bs[i].String()
		if sa != sb {
			return &Divergence{Kind: "anomalies", Epoch: minEpoch(as[i].Epoch, bs[i].Epoch),
				Detail: fmt.Sprintf("\n  a: %s\n  b: %s", sa, sb)}
		}
	}
	if len(as) != len(bs) {
		extra := as
		if len(bs) > len(as) {
			extra = bs
		}
		return &Divergence{Kind: "anomalies", Epoch: extra[n].Epoch,
			Detail: fmt.Sprintf("anomaly count %d vs %d", len(as), len(bs))}
	}
	return nil
}

// diffMeta finds the first differing metadata key in sorted order.
func diffMeta(a, b map[string]string) *Divergence {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		va, oka := a[k]
		vb, okb := b[k]
		if oka != okb || va != vb {
			return &Divergence{Kind: "meta",
				Detail: fmt.Sprintf("key %q: %q vs %q", k, va, vb)}
		}
	}
	return nil
}

func minEpoch(a, b int) int {
	if a < b {
		return a
	}
	return b
}
