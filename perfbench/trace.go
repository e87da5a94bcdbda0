package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smartbalance/internal/contention"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
)

// hostClock reads host time as nanoseconds since the benchmark started.
// It is monotonic, and every timestamp of one process shares its base,
// so spans from different layers compare directly.
type hostClock struct{ base time.Time }

func newHostClock() hostClock { return hostClock{base: time.Now()} }

func (c hostClock) now() int64 { return int64(time.Since(c.base)) }

// epochObserver is the kernel.Observer every node run installs. It
// timestamps each TraceEpoch (so consecutive stamps bound one epoch of
// host time), counts the slice, wake and migrate events, and samples the
// contention model's pressure gauges at each boundary. Its buffers are
// sized before the run so observing allocates nothing.
type epochObserver struct {
	clock  hostClock
	stamps []int64
	cont   *contention.Model

	slices, wakes, migrations int
	maxPressure, maxBWUtil    float64
}

func newEpochObserver(clock hostClock, epochs int, cont *contention.Model) *epochObserver {
	return &epochObserver{clock: clock, stamps: make([]int64, 0, epochs+1), cont: cont}
}

func (o *epochObserver) observe(e kernel.TraceEvent) {
	switch e.Kind {
	case kernel.TraceEpoch:
		o.stamps = append(o.stamps, o.clock.now())
		if o.cont != nil {
			o.maxPressure = max(o.maxPressure, o.cont.MaxPressure())
			o.maxBWUtil = max(o.maxBWUtil, o.cont.MaxBWUtilization())
		}
	case kernel.TraceSlice:
		o.slices++
	case kernel.TraceWake:
		o.wakes++
	case kernel.TraceMigrate:
		o.migrations++
	}
}

// timedBalancer wraps the balancer under test and records the host
// start and end of every Rebalance call. It reports the inner name, so
// the kernel's RunStats are those of an unwrapped run.
type timedBalancer struct {
	inner kernel.Balancer
	clock hostClock
	calls [][2]int64
}

func newTimedBalancer(inner kernel.Balancer, clock hostClock, epochs int) *timedBalancer {
	return &timedBalancer{inner: inner, clock: clock, calls: make([][2]int64, 0, epochs+1)}
}

func (b *timedBalancer) Name() string { return b.inner.Name() }

func (b *timedBalancer) Rebalance(k *kernel.Kernel, now kernel.Time, threads []hpc.ThreadSample, cores []hpc.CoreEpochSample) {
	t0 := b.clock.now()
	b.inner.Rebalance(k, now, threads, cores)
	b.calls = append(b.calls, [2]int64{t0, b.clock.now()}) //sbvet:allow hotpath(benchmark timing buffer, pre-sized to the run's epoch count before Run)
}

// span is one traced interval of host time. Parent indexes the
// enclosing span in the same tracer (-1 for a root); Run identifies the
// measured repetition the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole traced run; write dumps
// them once the run ends. A nil tracer records nothing, so untraced runs
// share the traced code path.
type tracer struct {
	spans []span
}

func (t *tracer) add(name string, start, end int64, parent, run int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: run})
	return len(t.spans) - 1
}

// setEnd closes a span opened with an unknown end.
func (t *tracer) setEnd(i int, end int64) {
	if t != nil && i >= 0 {
		t.spans[i].End = end
	}
}

// selfTimes returns each span's duration minus the time its direct
// children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// residual is the unattributed host time: the self time of the
// container spans (iterations and kernel runs), over the summed
// duration of the root spans. Leaf spans are fully attributed to their
// layer; what the containers keep for themselves is harness time
// between the layer calls.
func (t *tracer) residual() float64 {
	self := t.selfTimes()
	var unattributed, total int64
	for i, s := range t.spans {
		switch {
		case s.Parent < 0:
			total += s.dur()
			unattributed += self[i]
		case s.Name == spanKernelRun:
			unattributed += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(unattributed) / float64(total)
}

// write dumps the spans as JSON lines, one span per line with its index.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names. Each names the layer whose public call the span times.
const (
	spanIteration   = "iteration"
	spanBuild       = "workload.build"
	spanTrain       = "core.train"
	spanMachineNew  = "machine.new"
	spanKernelNew   = "kernel.new"
	spanSpawn       = "kernel.spawn"
	spanKernelRun   = "kernel.run"
	spanEpoch       = "kernel.epoch"
	spanRebalance   = "balancer.rebalance"
	spanFleetNew    = "fleet.new"
	spanFleetRun    = "fleet.run"
	spanFleetRunW1  = "fleet.run.workers1"
	spanFleetRunLen = "fleet.run.long"
)

// addEpochSpans splits one kernel.Run span at the epoch stamps and
// hangs each Rebalance call under the epoch it opened. The first span
// runs from the start of Run to the first boundary and holds no
// Rebalance; every later epoch span starts at its TraceEpoch stamp,
// which the kernel emits just before it calls the balancer.
func (t *tracer) addEpochSpans(runSpan int, runStart, runEnd int64, stamps []int64, calls [][2]int64, run int) error {
	if t == nil {
		return nil
	}
	if len(calls) != len(stamps) {
		return fmt.Errorf("trace: %d epoch stamps but %d Rebalance calls", len(stamps), len(calls))
	}
	bounds := make([]int64, 0, len(stamps)+2)
	bounds = append(bounds, runStart)
	bounds = append(bounds, stamps...)
	bounds = append(bounds, runEnd)
	for i := 0; i+1 < len(bounds); i++ {
		ep := t.add(spanEpoch, bounds[i], bounds[i+1], runSpan, run)
		if i > 0 {
			c := calls[i-1]
			t.add(spanRebalance, c[0], c[1], ep, run)
		}
	}
	return nil
}
