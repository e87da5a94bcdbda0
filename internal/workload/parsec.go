package workload

import (
	"fmt"
	"sort"
)

// PARSEC-like benchmark profiles.
//
// The attribute values below are shaped by the published PARSEC
// characterisation (Bienia et al., PACT'08) and the behaviour the paper
// exploits: compute-bound kernels (blackscholes, swaptions) with high
// ILP and small working sets; memory-bound kernels (canneal,
// streamcluster) dominated by cache misses; and mixed/phasic codecs
// (x264, bodytrack) whose behaviour changes with input and
// configuration. Absolute numbers are synthetic — the balancers only
// consume the relative diversity.

// parsecProfiles maps benchmark name to its phase cycle.
var parsecProfiles = map[string][]Phase{
	"blackscholes": {
		{Name: "price", Instructions: 60e6, ILP: 3.4, MemShare: 0.24, BranchShare: 0.08,
			WorkingSetIKB: 6, WorkingSetDKB: 24, BranchEntropy: 0.15, MLP: 2.5,
			TLBPressureI: 0.05, TLBPressureD: 0.1},
		{Name: "reduce", Instructions: 12e6, ILP: 2.2, MemShare: 0.3, BranchShare: 0.12,
			WorkingSetIKB: 5, WorkingSetDKB: 48, BranchEntropy: 0.25, MLP: 2.0,
			TLBPressureI: 0.05, TLBPressureD: 0.15},
	},
	"bodytrack": {
		{Name: "edge-detect", Instructions: 30e6, ILP: 2.6, MemShare: 0.3, BranchShare: 0.13,
			WorkingSetIKB: 14, WorkingSetDKB: 96, BranchEntropy: 0.4, MLP: 3.0,
			TLBPressureI: 0.1, TLBPressureD: 0.2},
		{Name: "particle-filter", Instructions: 45e6, ILP: 2.0, MemShare: 0.33, BranchShare: 0.17,
			WorkingSetIKB: 20, WorkingSetDKB: 160, BranchEntropy: 0.55, MLP: 2.2,
			TLBPressureI: 0.15, TLBPressureD: 0.3},
		{Name: "pose-update", Instructions: 15e6, ILP: 1.6, MemShare: 0.28, BranchShare: 0.2,
			WorkingSetIKB: 10, WorkingSetDKB: 40, BranchEntropy: 0.5, MLP: 1.6,
			TLBPressureI: 0.1, TLBPressureD: 0.15, SleepAfterNs: 2e6},
	},
	"canneal": {
		{Name: "swap-eval", Instructions: 40e6, ILP: 1.3, MemShare: 0.42, BranchShare: 0.16,
			WorkingSetIKB: 8, WorkingSetDKB: 2048, BranchEntropy: 0.65, MLP: 1.8,
			TLBPressureI: 0.1, TLBPressureD: 0.7},
		{Name: "temp-step", Instructions: 8e6, ILP: 1.8, MemShare: 0.3, BranchShare: 0.12,
			WorkingSetIKB: 6, WorkingSetDKB: 256, BranchEntropy: 0.4, MLP: 2.0,
			TLBPressureI: 0.08, TLBPressureD: 0.4},
	},
	"dedup": {
		{Name: "chunk", Instructions: 25e6, ILP: 2.0, MemShare: 0.36, BranchShare: 0.14,
			WorkingSetIKB: 12, WorkingSetDKB: 384, BranchEntropy: 0.45, MLP: 2.8,
			TLBPressureI: 0.12, TLBPressureD: 0.45},
		{Name: "hash-compress", Instructions: 35e6, ILP: 2.8, MemShare: 0.27, BranchShare: 0.1,
			WorkingSetIKB: 10, WorkingSetDKB: 64, BranchEntropy: 0.3, MLP: 3.2,
			TLBPressureI: 0.08, TLBPressureD: 0.2},
		{Name: "write-out", Instructions: 8e6, ILP: 1.4, MemShare: 0.45, BranchShare: 0.12,
			WorkingSetIKB: 8, WorkingSetDKB: 512, BranchEntropy: 0.35, MLP: 2.0,
			TLBPressureI: 0.1, TLBPressureD: 0.5, SleepAfterNs: 3e6},
	},
	"ferret": {
		{Name: "segment", Instructions: 28e6, ILP: 2.4, MemShare: 0.31, BranchShare: 0.13,
			WorkingSetIKB: 18, WorkingSetDKB: 128, BranchEntropy: 0.42, MLP: 2.6,
			TLBPressureI: 0.15, TLBPressureD: 0.3},
		{Name: "extract-vec", Instructions: 32e6, ILP: 3.0, MemShare: 0.26, BranchShare: 0.09,
			WorkingSetIKB: 14, WorkingSetDKB: 96, BranchEntropy: 0.3, MLP: 3.0,
			TLBPressureI: 0.1, TLBPressureD: 0.25},
		{Name: "rank", Instructions: 20e6, ILP: 1.7, MemShare: 0.38, BranchShare: 0.16,
			WorkingSetIKB: 12, WorkingSetDKB: 768, BranchEntropy: 0.55, MLP: 2.0,
			TLBPressureI: 0.12, TLBPressureD: 0.55},
	},
	"fluidanimate": {
		{Name: "rebuild-grid", Instructions: 18e6, ILP: 1.9, MemShare: 0.4, BranchShare: 0.12,
			WorkingSetIKB: 10, WorkingSetDKB: 512, BranchEntropy: 0.35, MLP: 2.4,
			TLBPressureI: 0.1, TLBPressureD: 0.5},
		{Name: "compute-forces", Instructions: 55e6, ILP: 3.1, MemShare: 0.29, BranchShare: 0.08,
			WorkingSetIKB: 12, WorkingSetDKB: 192, BranchEntropy: 0.2, MLP: 3.5,
			TLBPressureI: 0.08, TLBPressureD: 0.3},
		{Name: "advance", Instructions: 12e6, ILP: 2.4, MemShare: 0.33, BranchShare: 0.1,
			WorkingSetIKB: 8, WorkingSetDKB: 256, BranchEntropy: 0.25, MLP: 2.8,
			TLBPressureI: 0.08, TLBPressureD: 0.35},
	},
	"freqmine": {
		{Name: "build-fptree", Instructions: 30e6, ILP: 1.8, MemShare: 0.37, BranchShare: 0.19,
			WorkingSetIKB: 16, WorkingSetDKB: 896, BranchEntropy: 0.6, MLP: 2.0,
			TLBPressureI: 0.15, TLBPressureD: 0.6},
		{Name: "mine", Instructions: 42e6, ILP: 2.1, MemShare: 0.33, BranchShare: 0.21,
			WorkingSetIKB: 18, WorkingSetDKB: 640, BranchEntropy: 0.55, MLP: 2.2,
			TLBPressureI: 0.15, TLBPressureD: 0.5},
	},
	"streamcluster": {
		{Name: "dist-eval", Instructions: 50e6, ILP: 1.5, MemShare: 0.44, BranchShare: 0.1,
			WorkingSetIKB: 6, WorkingSetDKB: 1536, BranchEntropy: 0.3, MLP: 3.8,
			TLBPressureI: 0.06, TLBPressureD: 0.65},
		{Name: "recluster", Instructions: 15e6, ILP: 1.8, MemShare: 0.36, BranchShare: 0.15,
			WorkingSetIKB: 8, WorkingSetDKB: 512, BranchEntropy: 0.45, MLP: 2.4,
			TLBPressureI: 0.08, TLBPressureD: 0.45},
	},
	"swaptions": {
		{Name: "hjm-sim", Instructions: 70e6, ILP: 3.6, MemShare: 0.22, BranchShare: 0.07,
			WorkingSetIKB: 5, WorkingSetDKB: 20, BranchEntropy: 0.12, MLP: 2.8,
			TLBPressureI: 0.04, TLBPressureD: 0.08},
		{Name: "price-agg", Instructions: 10e6, ILP: 2.4, MemShare: 0.28, BranchShare: 0.1,
			WorkingSetIKB: 4, WorkingSetDKB: 32, BranchEntropy: 0.2, MLP: 2.2,
			TLBPressureI: 0.05, TLBPressureD: 0.1},
	},
	"facesim": {
		{Name: "update-state", Instructions: 34e6, ILP: 2.7, MemShare: 0.31, BranchShare: 0.09,
			WorkingSetIKB: 18, WorkingSetDKB: 448, BranchEntropy: 0.25, MLP: 3.0,
			TLBPressureI: 0.12, TLBPressureD: 0.4},
		{Name: "solve-cg", Instructions: 48e6, ILP: 2.2, MemShare: 0.38, BranchShare: 0.07,
			WorkingSetIKB: 10, WorkingSetDKB: 1280, BranchEntropy: 0.18, MLP: 3.6,
			TLBPressureI: 0.08, TLBPressureD: 0.55},
		{Name: "collisions", Instructions: 14e6, ILP: 1.7, MemShare: 0.33, BranchShare: 0.18,
			WorkingSetIKB: 14, WorkingSetDKB: 256, BranchEntropy: 0.55, MLP: 2.0,
			TLBPressureI: 0.12, TLBPressureD: 0.3},
	},
	"raytrace": {
		{Name: "traverse-bvh", Instructions: 40e6, ILP: 1.9, MemShare: 0.36, BranchShare: 0.2,
			WorkingSetIKB: 12, WorkingSetDKB: 960, BranchEntropy: 0.6, MLP: 2.2,
			TLBPressureI: 0.1, TLBPressureD: 0.5},
		{Name: "shade", Instructions: 26e6, ILP: 2.9, MemShare: 0.26, BranchShare: 0.1,
			WorkingSetIKB: 14, WorkingSetDKB: 128, BranchEntropy: 0.3, MLP: 2.8,
			TLBPressureI: 0.1, TLBPressureD: 0.25},
		{Name: "present", Instructions: 6e6, ILP: 1.5, MemShare: 0.42, BranchShare: 0.1,
			WorkingSetIKB: 8, WorkingSetDKB: 320, BranchEntropy: 0.25, MLP: 2.4,
			TLBPressureI: 0.08, TLBPressureD: 0.35, SleepAfterNs: 5e6},
	},
	"vips": {
		{Name: "decode-tile", Instructions: 22e6, ILP: 2.5, MemShare: 0.3, BranchShare: 0.12,
			WorkingSetIKB: 20, WorkingSetDKB: 224, BranchEntropy: 0.38, MLP: 3.0,
			TLBPressureI: 0.18, TLBPressureD: 0.35},
		{Name: "convolve", Instructions: 38e6, ILP: 3.2, MemShare: 0.27, BranchShare: 0.08,
			WorkingSetIKB: 16, WorkingSetDKB: 160, BranchEntropy: 0.2, MLP: 3.6,
			TLBPressureI: 0.12, TLBPressureD: 0.3},
		{Name: "write-tile", Instructions: 10e6, ILP: 1.6, MemShare: 0.42, BranchShare: 0.1,
			WorkingSetIKB: 10, WorkingSetDKB: 320, BranchEntropy: 0.3, MLP: 2.2,
			TLBPressureI: 0.1, TLBPressureD: 0.4, SleepAfterNs: 1e6},
	},
}

// x264 variants (Table 3): the same codec behaves differently under
// high (H) or low (L) frame-rate configuration and across the crew and
// bowing input videos. High rate means larger motion-estimation bursts
// with higher ILP demand; the crew sequence has more motion (more
// memory traffic, harder branches) than bowing.
func x264Profile(high bool, input string) []Phase {
	// Base numbers per phase; scaled by configuration below.
	meInstr, encInstr, filtInstr := 36e6, 26e6, 12e6
	ilpME, ilpEnc := 2.9, 2.3
	mem, entropy := 0.3, 0.45
	sleep := int64(4e6) // inter-frame pacing wait
	if high {
		meInstr *= 1.6
		encInstr *= 1.5
		ilpME += 0.4
		sleep = 1e6 // high frame rate barely waits
	}
	switch input {
	case "crew":
		mem += 0.05
		entropy += 0.12
	case "bow":
		meInstr *= 0.85
		entropy -= 0.08
	default:
		panic(fmt.Sprintf("workload: unknown x264 input %q", input))
	}
	return []Phase{
		{Name: "motion-est", Instructions: uint64(meInstr), ILP: ilpME, MemShare: mem,
			BranchShare: 0.14, WorkingSetIKB: 24, WorkingSetDKB: 288,
			BranchEntropy: clampF(entropy, 0, 1), MLP: 3.2, TLBPressureI: 0.2, TLBPressureD: 0.35},
		{Name: "encode", Instructions: uint64(encInstr), ILP: ilpEnc, MemShare: mem - 0.04,
			BranchShare: 0.16, WorkingSetIKB: 28, WorkingSetDKB: 192,
			BranchEntropy: clampF(entropy+0.05, 0, 1), MLP: 2.6, TLBPressureI: 0.22, TLBPressureD: 0.3},
		{Name: "deblock", Instructions: uint64(filtInstr), ILP: 2.0, MemShare: mem + 0.06,
			BranchShare: 0.11, WorkingSetIKB: 16, WorkingSetDKB: 160,
			BranchEntropy: clampF(entropy-0.1, 0, 1), MLP: 2.4, TLBPressureI: 0.15, TLBPressureD: 0.3,
			SleepAfterNs: sleep},
	}
}

func init() {
	parsecProfiles["x264H-crew"] = x264Profile(true, "crew")
	parsecProfiles["x264H-bow"] = x264Profile(true, "bow")
	parsecProfiles["x264L-crew"] = x264Profile(false, "crew")
	parsecProfiles["x264L-bow"] = x264Profile(false, "bow")
}

// Benchmarks returns the sorted list of available PARSEC-like benchmark
// names, including the four x264 variants.
func Benchmarks() []string {
	names := make([]string, 0, len(parsecProfiles))
	for n := range parsecProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Benchmark materialises nthreads workers of the named benchmark.
func Benchmark(name string, nthreads int, seed uint64) ([]ThreadSpec, error) {
	base, ok := parsecProfiles[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return Spawn(name, base, nthreads, seed)
}

// MixNames returns the identifiers of the six Table 3 mixes.
func MixNames() []string {
	return []string{"Mix1", "Mix2", "Mix3", "Mix4", "Mix5", "Mix6"}
}

// MixContents returns the benchmark list of each mix exactly as in
// Table 3 of the paper.
func MixContents(mix string) ([]string, error) {
	m := map[string][]string{
		"Mix1": {"x264H-crew", "x264H-bow"},
		"Mix2": {"x264L-crew", "x264L-bow"},
		"Mix3": {"x264L-crew", "x264H-bow"},
		"Mix4": {"x264H-crew", "x264L-bow"},
		"Mix5": {"bodytrack", "x264H-crew"},
		"Mix6": {"bodytrack", "x264H-crew", "x264L-bow"},
	}
	bs, ok := m[mix]
	if !ok {
		return nil, fmt.Errorf("workload: unknown mix %q", mix)
	}
	return bs, nil
}

// Mix materialises a Table 3 mix with nthreads workers per constituent
// benchmark.
func Mix(mix string, nthreads int, seed uint64) ([]ThreadSpec, error) {
	benches, err := MixContents(mix)
	if err != nil {
		return nil, err
	}
	out := make([]ThreadSpec, 0, len(benches)*max(nthreads, 0))
	for i, b := range benches {
		specs, err := Benchmark(b, nthreads, seed+uint64(i)*0x9E37)
		if err != nil {
			return nil, err
		}
		out = append(out, specs...)
	}
	return out, nil
}
