// Package trace is the raw half of sbsim's -trace report: a ring
// holding the last n kernel events, and the text report that prints
// them under the kernel-event counters of a telemetry collector. It
// aggregates nothing itself; telemetry.KernelObserver is the one
// aggregator of kernel events, and the report reads its counts from
// the collector, so the two cannot disagree.
package trace

import (
	"fmt"
	"io"
	"strconv"

	"smartbalance/internal/kernel"
	"smartbalance/internal/telemetry"
)

// Tail is a ring holding the last n kernel events, installed beside a
// telemetry collector with Kernel.AddObserver. Like its kernel it is
// single-threaded: concurrent kernels need one tail each.
type Tail struct {
	buf  []kernel.TraceEvent
	next int // slot the next event overwrites
	seen int // events observed in total
}

// NewTail makes a tail retaining at most n events; n must be positive.
func NewTail(n int) *Tail {
	return &Tail{buf: make([]kernel.TraceEvent, n)}
}

// Observe is the kernel.Observer callback: it overwrites the oldest
// retained event once the ring is full.
func (t *Tail) Observe(e kernel.TraceEvent) {
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.seen++
}

// Events returns the retained events, oldest first.
func (t *Tail) Events() []kernel.TraceEvent {
	if t.seen < len(t.buf) {
		return t.buf[:t.seen]
	}
	out := make([]kernel.TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Seen reports how many events the tail observed, evicted ones
// included.
func (t *Tail) Seen() int { return t.seen }

// Write prints the report: event counts per kind, context switches per
// core and migration arrivals per core, all read from a collector's
// kernel counters (metrics is its snapshot), then the tail's raw
// events.
func Write(w io.Writer, metrics []telemetry.Metric, cores int, tail *Tail) {
	count := make(map[string]int64, len(metrics))
	for _, m := range metrics {
		count[m.Key] = int64(m.Value)
	}
	fmt.Fprintln(w, "trace: kernel events by kind")
	for k := kernel.TraceSpawn; k <= kernel.TraceCoreBusy; k++ {
		if n := count[telemetry.Name("kernel_events_total", "kind", k.String())]; n > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", k, n)
		}
	}
	fmt.Fprint(w, "  context switches per core:")
	for c := 0; c < cores; c++ {
		fmt.Fprintf(w, " c%d=%d", c, count[telemetry.Name("kernel_core_slices_total", "core", strconv.Itoa(c))])
	}
	fmt.Fprint(w, "\n  migration arrivals per core:")
	arrivals := 0
	for c := 0; c < cores; c++ {
		if n := count[telemetry.Name("kernel_core_migrations_total", "core", strconv.Itoa(c))]; n > 0 {
			fmt.Fprintf(w, " c%d=%d", c, n)
			arrivals++
		}
	}
	if arrivals == 0 {
		fmt.Fprint(w, " none")
	}
	evs := tail.Events()
	fmt.Fprintf(w, "\nlast %d of %d events:\n", len(evs), tail.seen)
	for _, e := range evs {
		fmt.Fprintln(w, e.String())
	}
}
