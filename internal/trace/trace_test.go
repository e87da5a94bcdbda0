package trace

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/balancer"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/telemetry"
	"smartbalance/internal/workload"
)

// observe runs specs for durNs on a fresh QuadHMP kernel under b, with
// a telemetry collector, a tail of limit events and any extra
// observers installed.
func observe(b kernel.Balancer, specs []workload.ThreadSpec, durNs int64, limit int, extra ...kernel.Observer) (*telemetry.Collector, *Tail, *kernel.Kernel, error) {
	m, err := machine.New(arch.QuadHMP())
	if err != nil {
		return nil, nil, nil, err
	}
	k, err := kernel.New(m, b, kernel.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	c, tail := telemetry.New(telemetry.Config{}), NewTail(limit)
	k.AddObserver(telemetry.KernelObserver(c))
	k.AddObserver(tail.Observe)
	for _, o := range extra {
		k.AddObserver(o)
	}
	for i := range specs {
		if _, err := k.Spawn(&specs[i]); err != nil {
			return nil, nil, nil, err
		}
	}
	return c, tail, k, k.Run(durNs)
}

// swaptionsRun is observe on n swaptions threads under b, failing t on
// any error.
func swaptionsRun(t *testing.T, b kernel.Balancer, n int, durNs int64, limit int, extra ...kernel.Observer) (*telemetry.Collector, *Tail, *kernel.Kernel) {
	t.Helper()
	specs, err := workload.Benchmark("swaptions", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, tail, k, err := observe(b, specs, durNs, limit, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return c, tail, k
}

// tracedRun runs four interactive IMB threads for 400 ms under random
// balancing, so the stream holds sleeps, wakes and migrations.
func tracedRun(t *testing.T, limit int) (*telemetry.Collector, *Tail, *kernel.Kernel) {
	t.Helper()
	specs, err := workload.IMB(workload.Medium, workload.Medium, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, tail, k, err := observe(balancer.NewRandom(3), specs, 400e6, limit)
	if err != nil {
		t.Fatal(err)
	}
	return c, tail, k
}

// report renders the quad-core report from c's counters and tail.
func report(c *telemetry.Collector, tail *Tail) string {
	var sb strings.Builder
	Write(&sb, c.Trace().Metrics, 4, tail)
	return sb.String()
}

// kindCount reads one kind's count off a report; absent kinds count 0.
func kindCount(t *testing.T, rep string, k kernel.TraceKind) int {
	t.Helper()
	for _, line := range strings.Split(rep, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == k.String() {
			n, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("bad count line %q", line)
			}
			return n
		}
	}
	return 0
}

// perCore reads a report's "<label>: c0=.. c3=.." line into per-core
// counts and their sum.
func perCore(t *testing.T, rep, label string) (map[arch.CoreID]int64, int) {
	t.Helper()
	_, rest, ok := strings.Cut(rep, label+":")
	if !ok {
		t.Fatalf("report has no %q line:\n%s", label, rep)
	}
	line, _, _ := strings.Cut(rest, "\n")
	out, sum := make(map[arch.CoreID]int64), 0
	for _, f := range strings.Fields(line) {
		var core, n int
		if _, err := fmt.Sscanf(f, "c%d=%d", &core, &n); err != nil && f != "none" {
			t.Fatalf("bad %s entry %q", label, f)
		}
		out[arch.CoreID(core)] += int64(n)
		sum += n
	}
	return out, sum
}

// dumped returns the report's raw-event lines.
func dumped(t *testing.T, rep string) []string {
	t.Helper()
	_, evs, ok := strings.Cut(rep, " events:\n")
	if !ok {
		t.Fatalf("report has no event tail:\n%s", rep)
	}
	return strings.Split(strings.TrimSuffix(evs, "\n"), "\n")
}

// TestRecorderCapturesLifecycle checks the report's counts, and the
// collector counters behind them, against the kernel's own accounting.
func TestRecorderCapturesLifecycle(t *testing.T) {
	c, tail, k := tracedRun(t, 1<<20)
	rep, st := report(c, tail), k.Stats()
	if n := kindCount(t, rep, kernel.TraceSpawn); n != 4 {
		t.Fatalf("spawn events: %d", n)
	}
	if kindCount(t, rep, kernel.TraceSlice) == 0 {
		t.Fatal("no slice events")
	}
	// Interactive workload must sleep and wake.
	if kindCount(t, rep, kernel.TraceSleep) == 0 || kindCount(t, rep, kernel.TraceWake) == 0 {
		t.Fatal("no sleep/wake events for an interactive workload")
	}
	// 400ms / 60ms epochs.
	if n := kindCount(t, rep, kernel.TraceEpoch); n != 6 {
		t.Fatalf("epoch events: %d", n)
	}
	// The counted instruction total must equal the kernel's.
	if got, want := c.Counter("kernel_instructions_total").Value(), int64(st.TotalInstructions()); got != want {
		t.Fatalf("counted instr %d != stats %d", got, want)
	}
	// Slice time must equal the busy time, and each core's slices its
	// context switches.
	switches, _ := perCore(t, rep, "context switches per core")
	var busy int64
	for _, cs := range st.Cores {
		busy += cs.BusyNs
		if switches[cs.Core] != cs.Switches {
			t.Errorf("core %d: reported %d switches, stats %d", cs.Core, switches[cs.Core], cs.Switches)
		}
	}
	if got := c.Counter("kernel_slice_ns_total").Value(); got != busy {
		t.Fatalf("counted slice ns %d != busy %d", got, busy)
	}
	// Migrate events and per-core arrivals both match the kernel's.
	if st.Migrations == 0 {
		t.Fatal("run made no migrations; the arrival check needs some")
	}
	byCore, arrivals := perCore(t, rep, "migration arrivals per core")
	if m := kindCount(t, rep, kernel.TraceMigrate); m != st.Migrations || arrivals != st.Migrations {
		t.Fatalf("migrate events %d, arrivals %d, stats %d", m, arrivals, st.Migrations)
	}
	landed := make(map[arch.CoreID]int64)
	for _, e := range tail.Events() {
		if e.Kind == kernel.TraceMigrate {
			landed[e.Core]++
		}
	}
	if !reflect.DeepEqual(byCore, landed) {
		t.Fatalf("reported arrivals %v, migrate events landed %v", byCore, landed)
	}
	// The tail saw exactly the stream the counters counted.
	total := 0
	for kind := kernel.TraceSpawn; kind <= kernel.TraceCoreBusy; kind++ {
		total += kindCount(t, rep, kind)
	}
	if tail.Seen() != total {
		t.Fatalf("tail saw %d events, counters %d", tail.Seen(), total)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	c, tail, _ := tracedRun(t, 16)
	if n := len(tail.Events()); n != 16 {
		t.Fatalf("ring holds %d events, want its limit 16", n)
	}
	if tail.Seen() <= 16 {
		t.Fatal("no eviction despite tiny ring")
	}
	// Counts still cover everything.
	if kindCount(t, report(c, tail), kernel.TraceSlice) <= 16 {
		t.Fatal("statistics should outlive the ring")
	}
}

// TestRingEvictsOldestFirst feeds synthetic, strictly ordered event
// streams through a tiny ring and pins down the eviction policy: the
// ring never holds more than its bound, the retained window is always
// the contiguous, in-order tail of the stream, before and after it
// wraps, and the total count covers evicted events too.
func TestRingEvictsOldestFirst(t *testing.T) {
	for _, total := range []int{5, 8, 21, 1000} {
		tail := NewTail(8)
		for i := 0; i < total; i++ {
			tail.Observe(kernel.TraceEvent{At: int64(i), Kind: kernel.TraceWake, Core: 0, Thread: 1})
		}
		if tail.Seen() != total {
			t.Fatalf("total %d: tail counted %d events", total, tail.Seen())
		}
		evs := tail.Events()
		if want := min(total, 8); len(evs) != want {
			t.Fatalf("total %d: retained %d events, want %d", total, len(evs), want)
		}
		for i, e := range evs {
			if want := int64(total - len(evs) + i); e.At != want {
				t.Fatalf("total %d: retained[%d].At = %d, want %d (eviction must be oldest-first)",
					total, i, e.At, want)
			}
		}
	}
}

// TestSummaryReportsDropped pins the ring overflow into the report's
// tail header, where a human reading -trace output learns that the
// events shown are only the last of many.
func TestSummaryReportsDropped(t *testing.T) {
	c, tail, _ := tracedRun(t, 16)
	if tail.Seen() <= 16 {
		t.Fatal("tiny ring did not overflow; test needs a longer run")
	}
	want := fmt.Sprintf("\nlast 16 of %d events:\n", tail.Seen())
	if s := report(c, tail); !strings.Contains(s, want) {
		t.Fatalf("report missing %q:\n%s", want, s)
	}
}

func TestSummaryAndDump(t *testing.T) {
	c, tail, _ := tracedRun(t, 10)
	s := report(c, tail)
	for _, frag := range []string{"slice", "epoch", "context switches per core", "c0=", "migration arrivals per core"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("report missing %q:\n%s", frag, s)
		}
	}
	// The report ends with the retained events, oldest first.
	lines := dumped(t, s)
	if len(lines) != 10 {
		t.Fatalf("report dumped %d events from a 10-event tail", len(lines))
	}
	for i, e := range tail.Events() {
		if lines[i] != e.String() {
			t.Fatalf("dump line %d = %q, want %q", i, lines[i], e.String())
		}
	}
	// A tail longer than the stream dumps every event.
	c, tail, _ = tracedRun(t, 1<<20)
	if n := len(dumped(t, report(c, tail))); n != tail.Seen() {
		t.Fatalf("dumped %d of %d events", n, tail.Seen())
	}
}

func TestMigrationsTracked(t *testing.T) {
	// Random balancing of six threads migrates; the counted migrations
	// and the report's per-core arrivals must both match kernel stats.
	c, tail, k := swaptionsRun(t, balancer.NewRandom(3), 6, 500e6, 1)
	rep, want := report(c, tail), k.Stats().Migrations
	if want == 0 {
		t.Fatal("run made no migrations; the test needs some")
	}
	if got := kindCount(t, rep, kernel.TraceMigrate); got != want {
		t.Fatalf("counted migrations %d != stats %d", got, want)
	}
	if _, arrivals := perCore(t, rep, "migration arrivals per core"); arrivals != want {
		t.Fatalf("per-core arrivals sum to %d, stats say %d migrations", arrivals, want)
	}
}

// TestRecordersComposeOnOneKernel is the multi-observer composition
// check from the trace side: a collector and two tails on the same
// kernel all see the full event stream.
func TestRecordersComposeOnOneKernel(t *testing.T) {
	t2 := NewTail(1 << 16)
	c, t1, _ := swaptionsRun(t, balancer.Vanilla{}, 4, 200e6, 1<<16, t2.Observe)
	if t1.Seen() == 0 {
		t.Fatal("first tail saw nothing")
	}
	if t1.Seen() != t2.Seen() || !reflect.DeepEqual(t1.Events(), t2.Events()) {
		t.Fatalf("composed tails disagree: %d/%d events", t1.Seen(), t2.Seen())
	}
	var slices, instr int64
	for _, e := range t1.Events() {
		if e.Kind == kernel.TraceSlice {
			slices++
			instr += int64(e.Instr)
		}
	}
	counted := int64(kindCount(t, report(c, t1), kernel.TraceSlice))
	if counted != slices || c.Counter("kernel_instructions_total").Value() != instr {
		t.Fatalf("collector and tails disagree: %d/%d slices, %d/%d instr",
			counted, slices, c.Counter("kernel_instructions_total").Value(), instr)
	}
}

// tracedScenario runs one scenario with its own collector and tail and
// returns its report and counted instructions — the building block
// for the concurrency regression test below.
func tracedScenario(seed uint64) (string, int64, error) {
	specs, err := workload.Benchmark("swaptions", 4, seed)
	if err != nil {
		return "", 0, err
	}
	c, tail, _, err := observe(balancer.Vanilla{}, specs, 300e6, 1<<16)
	if err != nil {
		return "", 0, err
	}
	return report(c, tail), c.Counter("kernel_instructions_total").Value(), nil
}

// TestRecordersConcurrentKernels is the parallel-sweep regression: two
// kernels with their own collectors and tails running on concurrent
// goroutines (exercised under go test -race) report exactly what a
// serial rerun of each scenario reports.
func TestRecordersConcurrentKernels(t *testing.T) {
	seeds := []uint64{1, 2}
	reps := make([]string, len(seeds))
	instrs := make([]int64, len(seeds))
	errs := make([]error, len(seeds))
	done := make(chan int, len(seeds))
	for i := range seeds {
		go func(i int) {
			reps[i], instrs[i], errs[i] = tracedScenario(seeds[i])
			done <- i
		}(i)
	}
	for range seeds {
		<-done
	}
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("concurrent scenario %d: %v", i, errs[i])
		}
		serial, instr, err := tracedScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		if reps[i] != serial || instrs[i] != instr {
			t.Errorf("seed %d: concurrent run (instr %d) differs from serial (instr %d):\n%s\nvs\n%s",
				seed, instrs[i], instr, reps[i], serial)
		}
	}
}
