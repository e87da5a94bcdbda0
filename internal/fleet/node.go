package fleet

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/scenario"
	"smartbalance/internal/telemetry"
	"smartbalance/internal/workload"
)

// Request is one admitted unit of the open-loop stream: its identity,
// its open-loop arrival time (set by the arrival process, never by the
// fleet's load), the request class, and the seed that materialises its
// thread spec. Requests are created in the fleet's serial dispatch
// section; nodes only consume them.
type Request struct {
	ID        uint64
	ArrivalNs int64
	Class     string
	Seed      uint64
}

// finishRec is one request completion captured by the node's kernel
// observer, in event order (which the kernel keeps deterministic).
type finishRec struct {
	id   kernel.ThreadID
	atNs int64
}

// Node is one simulated MPSoC in the fleet: a full scheduling kernel
// with its own balancer, seeded RNG streams, and telemetry collector,
// plus the request-lifecycle state the dispatcher reads and writes.
// All mutable state is node-local, so nodes step in parallel without
// sharing; the fleet touches them only in its serial sections.
type Node struct {
	ID       int
	Platform string

	kern  *kernel.Kernel
	cores int
	tel   *telemetry.Collector // the node's own collector; nil when fleet telemetry is off
	// copied counts tel's anomalies already copied into the fleet trace.
	copied int

	// Dispatcher-owned request state.
	pending  []Request                   // assigned, spawning at the next tick boundary
	inflight map[kernel.ThreadID]Request // spawned, not yet finished

	// step-owned harvest state.
	finished  []finishRec // completions captured during the last step
	tickLatNs []int64     // scratch: completion latencies of the last step

	// Accounting.
	requests  int // requests ever assigned
	completed int
	stepErr   error

	// Signals, updated once per tick from the node's own measurements.
	lastEnergyJ   float64
	ewmaEnergyJ   float64 // decayed energy sum (J)
	ewmaCompleted float64 // decayed completion count
	p99EWMANs     float64 // decayed per-tick p99 latency (ns); 0 until first completion
}

// signalDecay is the per-tick retention of the energy/completion
// horizon behind the joules-per-request estimate, and p99Alpha the
// blend weight of a fresh per-tick p99 sample. Both are fleet-fixed so
// every node's signals are comparable.
const (
	signalDecay = 0.7
	p99Alpha    = 0.3
)

// newNode builds one fleet node. kernelSeed and annealSeed are the
// node's private streams, pre-derived from the fleet seed; trainSeed is
// the predictor-training seed (shared fleet-wide so same-platform nodes
// reuse one memoised fit).
func newNode(id int, platName, balName string, trainSeed, kernelSeed, annealSeed uint64, tel *telemetry.Collector) (*Node, error) {
	plat, err := scenario.Platform(platName)
	if err != nil {
		return nil, err
	}
	bal, err := scenario.Balancer(balName, plat, trainSeed, annealSeed)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(plat)
	if err != nil {
		return nil, err
	}
	cfg := kernel.DefaultConfig()
	cfg.Seed = kernelSeed
	k, err := kernel.New(m, bal, cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		ID:       id,
		Platform: platName,
		kern:     k,
		cores:    plat.NumCores(),
		tel:      tel,
		inflight: make(map[kernel.ThreadID]Request),
	}
	k.AddObserver(func(e kernel.TraceEvent) {
		if e.Kind == kernel.TraceFinish {
			n.finished = append(n.finished, finishRec{id: e.Thread, atNs: int64(e.At)})
		}
	})
	if tel != nil {
		tel.SetMeta("node", strconv.Itoa(id))
		tel.SetMeta("platform", platName)
		tel.SetMeta("balancer", k.Balancer().Name())
		telemetry.Attach(k, tel)
	}
	return n, nil
}

// assign hands the node one request; it spawns at the next tick
// boundary. Serial dispatch section only.
func (n *Node) assign(rq Request) {
	n.pending = append(n.pending, rq)
	n.requests++
}

// queueDepth is the node's load signal: requests assigned or spawned
// and not yet completed.
func (n *Node) queueDepth() int { return len(n.pending) + len(n.inflight) }

// jouleEstimate is the node's energy signal: joules per completed
// request over the decayed horizon, idle power included — the true
// marginal cost the energy-aware policy routes on. Returns ok = false
// until the node has completed enough requests to have a meaningful
// estimate.
func (n *Node) jouleEstimate() (jpr float64, ok bool) {
	if n.ewmaCompleted < 0.5 {
		return 0, false
	}
	return n.ewmaEnergyJ / n.ewmaCompleted, true
}

// step advances the node's kernel to toNs: spawn every pending request
// (in assignment order), run the kernel, harvest completions, and
// refresh the node's signals. Called in parallel across nodes — it
// must touch only node-local state.
func (n *Node) step(toNs int64) error {
	n.finished = n.finished[:0]
	for i := range n.pending {
		rq := n.pending[i]
		spec, err := workload.RequestSpec(rq.Class, requestName(rq), rq.Seed)
		if err != nil {
			return err
		}
		id, err := n.kern.Spawn(&spec)
		if err != nil {
			return fmt.Errorf("fleet: node %d spawn request %d: %w", n.ID, rq.ID, err)
		}
		n.inflight[id] = rq
	}
	n.pending = n.pending[:0]
	if err := n.kern.Run(toNs); err != nil {
		return fmt.Errorf("fleet: node %d: %w", n.ID, err)
	}

	// Harvest: completions arrive in kernel event order, which is a
	// pure function of the node's seed. A completed request's task is
	// reaped, so the kernel holds only the requests in flight.
	n.tickLatNs = n.tickLatNs[:0]
	for _, f := range n.finished {
		rq, ok := n.inflight[f.id]
		if !ok {
			continue
		}
		delete(n.inflight, f.id)
		if err := n.kern.Reap(f.id); err != nil {
			return fmt.Errorf("fleet: node %d request %d: %w", n.ID, rq.ID, err)
		}
		n.completed++
		n.tickLatNs = append(n.tickLatNs, f.atNs-rq.ArrivalNs)
	}

	// Signals.
	e := n.kern.TotalEnergyJ()
	tickE := e - n.lastEnergyJ
	n.lastEnergyJ = e
	n.ewmaEnergyJ = signalDecay*n.ewmaEnergyJ + tickE
	n.ewmaCompleted = signalDecay*n.ewmaCompleted + float64(len(n.tickLatNs))
	if len(n.tickLatNs) > 0 {
		slices.Sort(n.tickLatNs)
		p99 := float64(quantile(n.tickLatNs, 0.99))
		if n.p99EWMANs <= 0 {
			n.p99EWMANs = p99
		} else {
			n.p99EWMANs = (1-p99Alpha)*n.p99EWMANs + p99Alpha*p99
		}
	}
	return nil
}

// quantile reads the q-quantile of a sorted sample by the nearest-rank
// method: rank = ceil(q*n), clamped to [1, n]. The epsilon shields the
// ceil from upward float slop in the product (0.55*100 evaluates to
// 55.000000000000007, which must still read rank 55, not 56). The old
// +0.999999 pseudo-ceil read one rank too low whenever q*n sat within
// 1e-6 above an integer, which bites hardest on the tiny samples of
// quiet ticks — with one or two completions in the window the p99
// EWMA absorbed the minimum instead of the maximum latency.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// requestName labels a request's thread, e.g. "r184.api".
func requestName(rq Request) string {
	return "r" + strconv.FormatUint(rq.ID, 10) + "." + rq.Class
}
