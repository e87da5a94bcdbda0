package main

import (
	"runtime"
	"slices"
	"sort"

	"smartbalance/internal/rng"
)

// quantile returns the q-quantile of xs by the nearest-rank method
// (rank = ceil(q*n)); 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(q*float64(len(s)) + 0.999999999)
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOf is the median of f over rs.
func medianOf[R any](rs []R, f func(R) float64) float64 { return quantileOf(rs, 0.5, f) }

// quantileOf is the q-quantile of f over rs.
func quantileOf[R any](rs []R, q float64, f func(R) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return quantile(xs, q)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// memDelta is what the Go runtime reports for one timed call: bytes
// allocated, collections that ran, and their summed pause.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// memMark snapshots the runtime counters that memDelta differences.
func memMark() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memMark()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	return memMark().HeapAlloc
}

// heapGrowth is the live heap now less base, a liveHeap reading taken
// before the run's set-up: the heap the run's state holds. Callers keep
// that state reachable across the call. The simulators only grow their
// state (a kernel keeps every task it ever spawned), so the figure read
// at the end of a run is the run's peak live heap.
func heapGrowth(base uint64) uint64 {
	if h := liveHeap(); h > base {
		return h - base
	}
	return 0
}

// refNominalNs is the calibration computation's nominal host time, what
// it takes on the 2-vCPU 2.0 GHz Xeon VM the benchmark was sized on.
// Host-time metrics are reported at that nominal host speed.
const refNominalNs = 7e6

// refBuf is the calibration computation's working set, reused so the
// computation allocates nothing.
var refBuf = make([]uint64, 1<<16)

// referenceNs times the calibration computation: fill 512 KiB with
// splitmix64 output and sort it. The benchmark's host is shared, and its
// speed drifts by tens of percent within a minute — at times by more
// than half. Every run times this computation just before its set-up,
// and the invocation's host-time metrics are scaled by refNominalNs
// over its lower quartile (see calibrate), which cancels the drift. The
// computation is the benchmark's own, so no change to the program can
// move it.
func referenceNs(clock hostClock) float64 {
	t0 := clock.now()
	state := uint64(1)
	for i := range refBuf {
		refBuf[i] = rng.Splitmix64(&state)
	}
	slices.Sort(refBuf)
	return float64(clock.now() - t0)
}
