package fleet

import (
	"fmt"
	"testing"
)

// BenchmarkFleet measures end-to-end fleet throughput — full kernels
// per node, parallel node stepping — on the canned bursty scenario at
// 8 and 32 nodes, for measuring while working on the fleet tier;
// perfbench's fleet-bursty workload is the repository benchmark.
// Reported as completed requests per wall second and nanoseconds of
// wall time per completed request.
func BenchmarkFleet(b *testing.B) {
	for _, nodes := range []int{8, 32} {
		b.Run(fmt.Sprintf("n%d", nodes), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Nodes = nodes
			cfg.Arrival = "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25"
			cfg.DurationNs = 200e6
			cfg.Seed = 7
			cfg.Workers = 8
			completed := 0
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
			}
			b.StopTimer()
			if completed == 0 {
				b.Fatal("benchmark completed no requests")
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(completed)/secs, "req/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(completed), "ns/request")
		})
	}
}
