package smartbalance

// Kernel-scale benchmarks: how many simulated threads the discrete-event
// kernel sustains per wall-clock second on production-sized machines
// (256 and 1024 cores, 10k+ threads) — the quantity the event-queue,
// runqueue and SoA-bank refactors target. The balancer is a no-op so
// the numbers isolate the kernel substrate (event queue, CFS mechanics,
// counter bank) from any balancing policy.

import (
	"runtime"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

// idleBalancer leaves every thread where fork placement put it.
type idleBalancer struct{}

func (idleBalancer) Name() string { return "idle" }

func (idleBalancer) Rebalance(*kernel.Kernel, kernel.Time, []hpc.ThreadSample, []hpc.CoreEpochSample) {
}

// scaleEpochs is the simulated window of one benchmark op, in epochs.
const scaleEpochs = 4

// scaleKernel builds a cores-wide ScalingHMP machine loaded with
// threads Mix1 workers under a no-op balancer.
func scaleKernel(tb testing.TB, cores, threads int) *kernel.Kernel {
	tb.Helper()
	plat, err := arch.ScalingHMP(cores)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := machine.New(plat)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := kernel.New(m, idleBalancer{}, kernel.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	specs, err := workload.Mix("Mix1", threads/2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range specs {
		if _, err := k.Spawn(&specs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return k
}

// benchScale times scaleEpochs of steady-state simulation and reports
// simulated-threads-per-wall-second: thread-seconds of simulated
// execution delivered per second of wall time. Two warmup epochs run
// under the stopped timer so the op measures the kernel's steady state
// — double-buffered structures touch both halves before timing starts —
// and a GC fence keeps setup's mark work out of the timed region.
func benchScale(b *testing.B, cores, threads int) {
	if testing.Short() && cores > 256 {
		b.Skip("short mode: 1024-core points take minutes per op")
	}
	epochNs := kernel.DefaultConfig().EpochNs
	warmNs := 2 * epochNs
	simNs := scaleEpochs * epochNs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := scaleKernel(b, cores, threads)
		if err := k.Run(warmNs); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		if err := k.Run(warmNs + simNs); err != nil {
			b.Fatal(err)
		}
	}
	simSec := float64(simNs) * 1e-9
	b.ReportMetric(float64(b.N)*float64(threads)*simSec/b.Elapsed().Seconds(), "simthreads/s")
}

// TestScaleEpochAllocsSteady pins the kernel substrate's steady-state
// allocation behaviour at scale: after warm epochs bring the slot
// store, snapshot arenas, runqueues and the wakeup heap to their
// high-water marks, a full simulated epoch — thousands of slices,
// counter records, and event-queue operations — allocates nothing. The
// event queue's slice-end slots are fixed at construction (one per
// core), so no event time or clustering can grow it. The pre-refactor
// path allocated per RecordSlice and per Snapshot through the map-based
// bank — thousands per epoch with 2560 threads.
func TestScaleEpochAllocsSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	epochNs := kernel.DefaultConfig().EpochNs
	k := scaleKernel(t, 256, 2560)
	// Eight warm epochs: every runqueue, arena and heap capacity must
	// reach high water before the pin is fair.
	horizon := 8 * epochNs
	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		horizon += epochNs
		if err := k.Run(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state scale epoch allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkKernelScale(b *testing.B) {
	b.Run("c256_t2560", func(b *testing.B) { benchScale(b, 256, 2560) })
	b.Run("c1024_t10240", func(b *testing.B) { benchScale(b, 1024, 10240) })
	b.Run("c1024_t16384", func(b *testing.B) { benchScale(b, 1024, 16384) })
	b.Run("c1024_t32768", func(b *testing.B) { benchScale(b, 1024, 32768) })
	b.Run("c1024_t49152", func(b *testing.B) { benchScale(b, 1024, 49152) })
	b.Run("c1024_t65536", func(b *testing.B) { benchScale(b, 1024, 65536) })
}
