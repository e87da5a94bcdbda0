package kernel

import (
	"math"
	"math/bits"

	"smartbalance/internal/arch"
)

// eventKind enumerates discrete-event types.
type eventKind int

const (
	evSliceEnd eventKind = iota // a core's current timeslice expires
	evWakeup                    // a sleeping task becomes runnable
)

// event is one pending simulation event. Ordering is by time then by
// push sequence, which makes the simulation fully deterministic.
type event struct {
	at   Time
	seq  uint64
	kind eventKind

	core arch.CoreID // evSliceEnd target
	task ThreadID    // evWakeup target
}

// eventLess is the queue's total order: (at, seq) lexicographic. seq is
// unique per kernel, so the order has no ties.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq). The
// sift routines are hand-rolled rather than delegated to container/heap
// because heap.Push/Pop traffic in `any`, boxing every event on the hot
// scheduling path.
type eventHeap []event

func (q eventHeap) less(i, j int) bool {
	return eventLess(&q[i], &q[j])
}

func (q eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventHeap) siftDown(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			return
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

func (q *eventHeap) push(e event) {
	*q = append(*q, e) //sbvet:allow hotpath(event-queue capacity reaches the peak outstanding-event count once and is reused; pop truncates in place)
	q.siftUp(len(*q) - 1)
}

func (q *eventHeap) pop() (event, bool) {
	n := len(*q)
	if n == 0 {
		return event{}, false
	}
	e := (*q)[0]
	(*q)[0] = (*q)[n-1]
	*q = (*q)[:n-1]
	q.siftDown(0)
	return e, true
}

// noSeq marks an empty slice-timer slot; no pushed event carries it.
const noSeq = math.MaxUint64

// timer is one winner-tree node: the earliest slice end in the node's
// subtree. An empty subtree holds (math.MaxInt64, noSeq).
type timer struct {
	at   Time
	seq  uint64
	core arch.CoreID
}

// before returns an all-ones mask when (aAt, aSeq) orders strictly
// before (bAt, bSeq) and zero otherwise, without a branch: the final
// borrow of the 128-bit subtraction (aAt, aSeq) - (bAt, bSeq). Flipping
// the sign bit maps signed time onto unsigned order.
func before(aAt Time, aSeq uint64, bAt Time, bSeq uint64) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(aSeq, bSeq, 0)
	_, borrow = bits.Sub64(uint64(aAt)^sign, uint64(bAt)^sign, borrow)
	return -borrow
}

// sliceTimers holds every core's pending slice end in a winner tree:
// nodes[1] is the root and core c's leaf is nodes[leaves+c]. A core has
// at most one pending slice end (DESIGN.md §12), so one leaf per core
// suffices and the tree never grows after construction.
type sliceTimers struct {
	nodes  []timer
	leaves int // a power of two >= the core count; padding leaves stay empty
	// taken is the core whose slice end the last pop returned, or -1.
	// Its leaf still holds the popped key: handling a slice end almost
	// always re-arms the same core, and that arm then rewrites the
	// leaf-to-root path once instead of a clear and a set rewriting it
	// twice. The next pop clears the leaf if the core went idle.
	taken arch.CoreID
}

func newSliceTimers(cores int) sliceTimers {
	leaves := 1
	for leaves < cores {
		leaves <<= 1
	}
	nodes := make([]timer, 2*leaves)
	for i := range nodes {
		nodes[i] = timer{at: math.MaxInt64, seq: noSeq}
	}
	return sliceTimers{nodes: nodes, leaves: leaves, taken: -1}
}

// set writes core c's leaf and replays the path to the root: each level
// keeps the earlier of the rising key and its sibling subtree's winner,
// selected with masks rather than branches.
func (s *sliceTimers) set(c arch.CoreID, at Time, seq uint64) {
	n := s.nodes
	i := s.leaves + int(c)
	n[i] = timer{at: at, seq: seq, core: c}
	for i > 1 {
		sib := n[i^1]
		m := before(sib.at, sib.seq, at, seq)
		at ^= (at ^ sib.at) & Time(m)
		seq ^= (seq ^ sib.seq) & m
		c ^= (c ^ sib.core) & arch.CoreID(m)
		i >>= 1
		n[i] = timer{at: at, seq: seq, core: c}
	}
}

// eventQueue holds the kernel's pending events under one (at, seq)
// total order, shaped to the kernel's traffic: each core's single
// pending slice end lives in a winner tree over the cores, and the
// sparse wakeups in a binary heap. seq is one push ticket shared by
// both, so a wakeup and a slice end at the same instant drain in push
// order.
type eventQueue struct {
	timers  sliceTimers
	wakeups eventHeap
	seq     uint64
}

func newEventQueue(cores int) eventQueue {
	return eventQueue{timers: newSliceTimers(cores)}
}

// armSlice schedules core c's slice end at time at. The core must have
// no pending slice end.
func (q *eventQueue) armSlice(c arch.CoreID, at Time) {
	if q.timers.taken == c {
		q.timers.taken = -1
	}
	q.timers.set(c, at, q.seq)
	q.seq++
}

// pushWakeup schedules task id's wakeup at time at.
func (q *eventQueue) pushWakeup(at Time, id ThreadID) {
	q.wakeups.push(event{at: at, seq: q.seq, kind: evWakeup, task: id})
	q.seq++
}

// popUntil removes and returns the earliest pending event if it is due
// at or before limit; ok is false when no event is.
func (q *eventQueue) popUntil(limit Time) (e event, ok bool) {
	s := &q.timers
	if s.taken >= 0 {
		s.set(s.taken, math.MaxInt64, noSeq)
		s.taken = -1
	}
	root := &s.nodes[1]
	if len(q.wakeups) > 0 {
		if w := &q.wakeups[0]; before(w.at, w.seq, root.at, root.seq) != 0 {
			if w.at > limit {
				return event{}, false
			}
			return q.wakeups.pop()
		}
	}
	if root.seq == noSeq || root.at > limit {
		return event{}, false
	}
	s.taken = root.core
	return event{at: root.at, seq: root.seq, kind: evSliceEnd, core: root.core}, true
}

// armed reports whether core c has a pending slice end.
func (q *eventQueue) armed(c arch.CoreID) bool {
	return q.timers.taken != c && q.timers.nodes[q.timers.leaves+int(c)].seq != noSeq
}
