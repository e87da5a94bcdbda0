package fleet

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkFleet measures end-to-end fleet throughput — full kernels
// per node, every tick shared between Run's caller and its helpers —
// on the canned bursty scenario, for measuring while working on the
// fleet tier; perfbench's fleet-bursty workload is the repository
// benchmark. n8 runs 8 nodes with Workers=8 and n32/wW 32 nodes with
// Workers=W, the curve over the worker count. Run's caller steps nodes
// too, and its helpers are capped at GOMAXPROCS-1, so on a 2-vCPU host
// every Workers >= 2 runs the caller and one helper. Reported as
// completed requests per wall second, nanoseconds of wall time per
// completed request, and the heap the last run's fleet still holds
// after a forced GC per request it completed (retained-B/request; the
// nodes' fixed state included). These runs admit for 200 ms, and their early
// ticks carry few requests: on a 2-vCPU Xeon, sharing every tick
// instead of only the ticks with a balancer epoch did not speed them
// up (n32/w2 41.1 → 43.2 µs per request, medians of 8 rounds, inside
// the rounds' spread), while perfbench's 5 s runs gained 1.12×.
func BenchmarkFleet(b *testing.B) {
	b.Run("n8", func(b *testing.B) { benchFleet(b, 8, 8) })
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n32/w%d", workers), func(b *testing.B) { benchFleet(b, 32, workers) })
	}
}

func benchFleet(b *testing.B, nodes, workers int) {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.Arrival = "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25"
	cfg.DurationNs = 200e6
	cfg.Seed = 7
	cfg.Workers = workers
	// One fleet first, so the heap baseline holds the process-global
	// predictor memo.
	if _, err := New(cfg); err != nil {
		b.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	completed := 0
	var last *Fleet
	var lastRes *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		completed += res.Completed
		last, lastRes = f, res
	}
	b.StopTimer()
	if completed == 0 {
		b.Fatal("benchmark completed no requests")
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(completed)/secs, "req/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(completed), "ns/request")
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(last)
	b.ReportMetric((float64(ms.HeapAlloc)-float64(base))/float64(lastRes.Completed), "retained-B/request")
}
