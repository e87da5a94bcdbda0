package smartbalance

// Epoch hot-path benchmarks: the cost of one sense→predict→balance
// iteration in isolation, for measuring while working on the
// controller; perfbench (BENCHMARK.json) is the repository benchmark,
// and TestEpochHotAllocsPinned holds the allocation ceilings. The
// harness runs a real system long enough to capture one representative
// epoch's sensing snapshot, then replays the controller's Rebalance
// against it so the numbers isolate the balancer from the workload
// simulation around it. A replay announces its epoch to the collector
// itself, as the kernel adapter does before every Rebalance in a
// kernel run, so each replayed epoch gets a record of its own.

import (
	"testing"
	"time"

	"smartbalance/internal/contention"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
)

// captureBalancer wraps the SmartBalance controller and keeps the last
// epoch's sensing snapshot so benchmarks can replay it.
type captureBalancer struct {
	inner   *SmartBalanceController
	tel     *TelemetryCollector // nil with telemetry off
	epoch   int                 // the last epoch announced to tel
	threads []hpc.ThreadSample
	cores   []hpc.CoreEpochSample
	now     kernel.Time
}

func (c *captureBalancer) Name() string { return c.inner.Name() }

func (c *captureBalancer) Rebalance(k *kernel.Kernel, now kernel.Time,
	threads []hpc.ThreadSample, cores []hpc.CoreEpochSample) {
	c.threads, c.cores, c.now = threads, cores, now
	c.inner.Rebalance(k, now, threads, cores)
}

// replay runs the controller once more on the captured snapshot, as
// the next epoch.
func (c *captureBalancer) replay(k *kernel.Kernel) {
	c.epoch++
	c.tel.BeginEpoch(c.epoch, int64(c.now))
	c.inner.Rebalance(k, c.now, c.threads, c.cores)
}

// epochHotHarness builds an HMP system under SmartBalance, runs it for
// enough epochs to warm every per-epoch scratch buffer, and returns the
// controller plus a captured epoch snapshot to replay. contended
// switches to the clustered big.LITTLE platform with the LLC-domain
// contention model enabled and coupled to the controller, so the replay
// exercises the contention-aware objective.
func epochHotHarness(tb testing.TB, telemetry, contended bool) (*captureBalancer, *kernel.Kernel) {
	tb.Helper()
	plat := QuadHMP()
	var mopts MachineOptions
	if contended {
		plat = OctaBigLittle()
		mopts.Contention = contention.Spec{Enabled: true}
	}
	pred, err := TrainPredictor(plat.Types, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultSmartBalanceConfig()
	cfg.Clock = NewFakeClock(time.Microsecond)
	inner, err := NewSmartBalanceController(pred, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	cap := &captureBalancer{inner: inner}
	sys, err := NewSystemFull(plat, cap, DefaultKernelConfig(), mopts)
	if err != nil {
		tb.Fatal(err)
	}
	if contended {
		inner.SetContention(sys.Kernel().Machine().Contention())
	}
	if telemetry {
		cap.tel = sys.EnableTelemetry()
		inner.SetTelemetry(cap.tel)
	}
	specs, err := Mix("Mix1", 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.SpawnAll(specs); err != nil {
		tb.Fatal(err)
	}
	// 12 epochs: enough for every thread to have been sensed and for
	// amortised scratch capacities to stabilise.
	if err := sys.Run(12 * 50 * time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	if cap.threads == nil {
		tb.Fatal("no epoch snapshot captured")
	}
	cap.epoch = sys.Stats().Epochs
	return cap, sys.Kernel()
}

// epochAllocs measures steady-state heap allocations per replayed
// sense→predict→balance epoch.
func epochAllocs(tb testing.TB, telemetry, contended bool) float64 {
	tb.Helper()
	cap, k := epochHotHarness(tb, telemetry, contended)
	// Warm the controller's scratch buffers beyond the captured state.
	for i := 0; i < 16; i++ {
		cap.replay(k)
	}
	return testing.AllocsPerRun(200, func() {
		cap.replay(k)
	})
}

// TestEpochAllocsReport prints the measured allocs/epoch for both
// telemetry states (informational; the pinned ceilings live in
// TestEpochHotAllocsPinned).
func TestEpochAllocsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Logf("allocs/epoch telemetry-off: %.1f", epochAllocs(t, false, false))
	t.Logf("allocs/epoch telemetry-on:  %.1f", epochAllocs(t, true, false))
	t.Logf("allocs/epoch contended:     %.1f", epochAllocs(t, false, true))
}

// TestEpochHotAllocsPinned pins the steady-state allocation budget of
// the epoch path — the enforcement half of the sbvet hotpath contract
// (DESIGN.md §11). With telemetry disabled the epoch is allocation-free;
// enabled, the only allocations left are the ones the suppressions in
// internal/telemetry document (retained span history, canonical attr
// rendering, arena amortisation). The pre-refactor baseline was ~10,774
// allocs/epoch in both states.
func TestEpochHotAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if got := epochAllocs(t, false, false); got != 0 {
		t.Errorf("telemetry-off epoch allocates: %.1f allocs/epoch, want 0", got)
	}
	const maxEnabled = 8
	if got := epochAllocs(t, true, false); got > maxEnabled {
		t.Errorf("telemetry-on epoch allocates %.1f allocs/epoch, want <= %d", got, maxEnabled)
	}
	// The contention-aware objective rides the same scratch buffers: the
	// budget does not move when the model is on.
	if got := epochAllocs(t, false, true); got != 0 {
		t.Errorf("contended epoch allocates: %.1f allocs/epoch, want 0", got)
	}
}

// BenchmarkEpochHot measures one replayed sense→predict→balance epoch
// with telemetry disabled.
func BenchmarkEpochHot(b *testing.B) {
	cap, k := epochHotHarness(b, false, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cap.replay(k)
	}
}

// BenchmarkEpochHotTelemetry is the same epoch replay with the
// telemetry collector enabled — the enabled-path cost contract.
func BenchmarkEpochHotTelemetry(b *testing.B) {
	cap, k := epochHotHarness(b, true, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cap.replay(k)
	}
}

// BenchmarkEpochHotContended replays the epoch on the clustered
// big.LITTLE platform with the LLC-domain contention model coupled in —
// the contention-aware objective's overhead.
func BenchmarkEpochHotContended(b *testing.B) {
	cap, k := epochHotHarness(b, false, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cap.replay(k)
	}
}
