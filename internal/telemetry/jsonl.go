package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONL is the canonical interchange format: one JSON document per
// line, in a fixed order — the meta line, then epoch and span lines in
// epoch order, then metric lines sorted by key, then anomaly lines.
// Field order within a line is fixed by the Go struct
// declarations and map keys are sorted by encoding/json, so two equal
// traces always serialise to byte-identical files.

// line is the union of every JSONL line shape. T selects the variant.
type line struct {
	T string `json:"t"`

	// t == "meta"
	Schema string            `json:"schema,omitempty"`
	KV     map[string]string `json:"kv,omitempty"`

	// t == "epoch" | "span" | "anomaly"
	Epoch   int    `json:"epoch,omitempty"`
	StartNs int64  `json:"start_ns,omitempty"`
	Seq     int    `json:"seq,omitempty"`
	Phase   string `json:"phase,omitempty"`
	DurNs   int64  `json:"dur_ns,omitempty"`
	Attrs   []Attr `json:"attrs,omitempty"`

	// t == "metric"
	Key     string   `json:"key,omitempty"`
	Kind    string   `json:"kind,omitempty"`
	Value   *float64 `json:"value,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`

	// t == "anomaly"
	AtNs   int64  `json:"at_ns,omitempty"`
	Reason string `json:"reason,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// WriteJSONL renders the trace in the canonical interchange format.
func WriteJSONL(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)

	if err := enc.Encode(line{T: "meta", Schema: Schema, KV: tr.Meta}); err != nil {
		return err
	}
	for _, e := range tr.Epochs {
		if err := enc.Encode(line{T: "epoch", Epoch: e.Epoch, StartNs: e.StartNs}); err != nil {
			return err
		}
		for _, s := range e.Spans {
			err := enc.Encode(line{
				T: "span", Epoch: s.Epoch, Seq: s.Seq, Phase: s.Phase,
				StartNs: s.StartNs, DurNs: s.DurNs, Attrs: s.Attrs,
			})
			if err != nil {
				return err
			}
		}
	}
	for _, m := range tr.Metrics {
		l := line{T: "metric", Key: m.Key, Kind: m.Kind}
		if m.Kind == KindHistogram {
			l.Buckets, l.Count, l.Sum = m.Buckets, m.Count, m.Sum
		} else {
			v := m.Value
			l.Value = &v
		}
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	for _, a := range tr.Anomalies {
		err := enc.Encode(line{
			T: "anomaly", Epoch: a.Epoch, AtNs: a.AtNs,
			Reason: a.Reason, Detail: a.Detail,
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a canonical JSONL export back into a Trace. It
// rejects other schemas and malformed lines with positional errors.
func ReadJSONL(r io.Reader) (*Trace, error) {
	tr := &Trace{Meta: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var curEpoch *EpochRecord
	n := 0
	sawMeta := false
	flushEpoch := func() {
		if curEpoch != nil {
			tr.Epochs = append(tr.Epochs, *curEpoch)
			curEpoch = nil
		}
	}
	for sc.Scan() {
		n++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", n, err)
		}
		switch l.T {
		case "meta":
			if l.Schema != Schema {
				return nil, fmt.Errorf("telemetry: line %d: unsupported schema %q (want %q)", n, l.Schema, Schema)
			}
			for k, v := range l.KV {
				tr.Meta[k] = v
			}
			sawMeta = true
		case "epoch":
			flushEpoch()
			curEpoch = &EpochRecord{Epoch: l.Epoch, StartNs: l.StartNs}
		case "span":
			s := Span{Epoch: l.Epoch, Seq: l.Seq, Phase: l.Phase, StartNs: l.StartNs, DurNs: l.DurNs, Attrs: l.Attrs}
			if curEpoch == nil || curEpoch.Epoch != l.Epoch {
				flushEpoch()
				curEpoch = &EpochRecord{Epoch: l.Epoch, StartNs: l.StartNs}
			}
			curEpoch.Spans = append(curEpoch.Spans, s)
		case "metric":
			m := Metric{Key: l.Key, Kind: l.Kind, Buckets: l.Buckets, Count: l.Count, Sum: l.Sum}
			if l.Value != nil {
				m.Value = *l.Value
			}
			tr.Metrics = append(tr.Metrics, m)
		case "anomaly":
			tr.Anomalies = append(tr.Anomalies, Anomaly{Epoch: l.Epoch, AtNs: l.AtNs, Reason: l.Reason, Detail: l.Detail})
		default:
			return nil, fmt.Errorf("telemetry: line %d: unknown line type %q", n, l.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flushEpoch()
	if !sawMeta {
		return nil, fmt.Errorf("telemetry: no meta line; not a %s export", Schema)
	}
	return tr, nil
}
