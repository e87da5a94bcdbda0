package core

// This file holds the scale points of the paper's Fig. 7 overhead and
// scalability analysis: 2 to 128 cores with 4 to 256 threads. The
// per-phase cost at each scale is the real controller's, timed by
// SmartBalance.Overhead (see exp.Figure7).

// MigrationCostNs is the modelled cost of migrating one thread
// (runqueue manipulation plus cold-cache refill), charged for the
// paper's assumption that 50% of threads migrate per epoch. Migration
// cost is a property of the target hardware, not of the host running
// this reproduction, so it is modelled rather than timed.
const MigrationCostNs = 30_000

// ScalePoint is one (cores, threads) configuration of the scalability
// sweep.
type ScalePoint struct {
	Cores   int
	Threads int
}

// ScalabilityScenarios returns the paper's Fig. 7(b) sweep: 2 to 128
// cores with 2 threads per core.
func ScalabilityScenarios() []ScalePoint {
	var out []ScalePoint
	for n := 2; n <= 128; n *= 2 {
		out = append(out, ScalePoint{Cores: n, Threads: 2 * n})
	}
	return out
}
