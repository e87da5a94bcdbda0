package workload

import (
	"fmt"

	"smartbalance/internal/rng"
)

// Request-shaped workloads: the short-lived, run-to-completion jobs a
// fleet-tier dispatcher admits from an open-loop traffic stream. Where
// the PARSEC-like benchmarks model long-running compute threads, a
// request is one phase, one pass (Repeats = 1): the thread retires a
// few million instructions and exits, and its wall time from arrival
// to exit is the request latency the fleet tier accounts.

// requestProfile is one request class's base phase shape.
type requestProfile struct {
	class string
	phase Phase
}

// requestProfiles are the built-in request classes, ordered. "api" is
// a small cache-friendly compute burst (an RPC handler), "page" a
// branchy mixed render (template assembly), and "query" a
// memory-bound scan with high MLP (a datastore lookup).
var requestProfiles = []requestProfile{
	{class: "api", phase: Phase{
		Name: "api", Instructions: 4_000_000,
		ILP: 2.2, MemShare: 0.18, BranchShare: 0.12,
		WorkingSetIKB: 24, WorkingSetDKB: 64,
		BranchEntropy: 0.35, MLP: 2.0,
		TLBPressureI: 0.05, TLBPressureD: 0.10,
	}},
	{class: "page", phase: Phase{
		Name: "page", Instructions: 12_000_000,
		ILP: 1.6, MemShare: 0.30, BranchShare: 0.20,
		WorkingSetIKB: 48, WorkingSetDKB: 256,
		BranchEntropy: 0.55, MLP: 2.5,
		TLBPressureI: 0.10, TLBPressureD: 0.20,
	}},
	{class: "query", phase: Phase{
		Name: "query", Instructions: 24_000_000,
		ILP: 1.2, MemShare: 0.45, BranchShare: 0.08,
		WorkingSetIKB: 32, WorkingSetDKB: 2048,
		BranchEntropy: 0.30, MLP: 4.0,
		TLBPressureI: 0.05, TLBPressureD: 0.35,
	}},
}

// RequestClasses lists the available request classes in canonical
// order.
func RequestClasses() []string {
	out := make([]string, len(requestProfiles))
	for i := range requestProfiles {
		out[i] = requestProfiles[i].class
	}
	return out
}

// RequestSpec materialises one short-lived request thread of the named
// class. The spec is a pure function of (class, name, seed): the seed
// drives a deterministic per-request jitter around the class's base
// phase, so two requests of one class are similar but not identical —
// the same worker-variation idiom Spawn applies to benchmark threads.
func RequestSpec(class, name string, seed uint64) (ThreadSpec, error) {
	for i := range requestProfiles {
		p := &requestProfiles[i]
		if p.class != class {
			continue
		}
		phases := make([]Phase, 1)
		perturbPhases(rng.New(seed), phases, []Phase{p.phase}, 0.10)
		spec := ThreadSpec{
			Name:      name,
			Benchmark: "req:" + class,
			Phases:    phases,
			Repeats:   1,
		}
		if err := spec.Validate(); err != nil {
			return ThreadSpec{}, err
		}
		return spec, nil
	}
	return ThreadSpec{}, fmt.Errorf("workload: unknown request class %q (known: %v)", class, RequestClasses())
}
