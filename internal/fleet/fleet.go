// Package fleet is the inter-node tier of the SmartBalance
// reproduction: N independent simulated MPSoC nodes — each a full
// scheduling kernel with its own balancer, RNG streams, and telemetry
// collector — behind an L4-style dispatcher that admits an open-loop
// request stream and routes each request on per-node signals (estimated
// joules per request, queue depth, p99 latency EWMA).
//
// The paper balances threads within one chip; this tier adds the level
// above it, so the sense→predict→balance loop runs twice: once per
// node (the existing controller) and once across nodes (the
// dispatcher). Headline metrics are fleet-level joules per request and
// p99 request latency.
//
// Determinism contract: a fleet run is a pure function of its Config.
// Every random choice — arrival times, request classes and per-request
// jitter seeds, each node's kernel service order and annealer — draws
// from a stream derived from Config.Seed by splitmix64, one stream per
// concern, so no consumer can perturb another. Nodes share no mutable
// state: the parallel section of a tick touches only node-local state,
// and every cross-node read or write happens in the serial sections in
// node-ID order. Equal seeds therefore produce byte-identical
// telemetry for any Workers value.
package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"smartbalance/internal/rng"
	"smartbalance/internal/telemetry"
	"smartbalance/internal/workload"
)

// Seed-stream tags: xored into the fleet seed so each concern draws
// from its own decorrelated splitmix64 chain.
const (
	arrivalSeedTag = 0xA221_7A1F_EE75
	requestSeedTag = 0x2E90_E575_C1A5
)

// Config describes one fleet run. The zero value is not runnable; use
// DefaultConfig and override.
type Config struct {
	// Nodes is the fleet size.
	Nodes int
	// Profile is a comma-separated platform list cycled across nodes
	// (e.g. "quad,biglittle" alternates 4-core and 8-core chips). Names
	// are scenario.Platform's: quad | biglittle | scaling:<n>.
	Profile string
	// Balancer is the intra-node balancer every node runs, resolved by
	// scenario.Balancer (smartbalance | vanilla | gts | iks | pinned).
	Balancer string
	// Policy picks the dispatcher (rr | least | energy).
	Policy string
	// Arrival is the open-loop arrival spec; see ParseArrival.
	Arrival string
	// Classes is the comma-separated request-class mix, drawn uniformly
	// per request (subset of workload.RequestClasses).
	Classes string
	// Seed reproduces the whole run.
	Seed uint64
	// DurationNs is the admission window: arrivals stop after it.
	DurationNs int64
	// TickNs is the dispatch quantum (default 5ms): arrivals within a
	// tick are routed together at its end and spawn at the next tick
	// boundary. It quantises dispatch only: the arrival stream is the
	// same at every tick.
	TickNs int64
	// DrainNs bounds the post-admission drain that lets in-flight
	// requests finish (default: DurationNs).
	DrainNs int64
	// Workers bounds how many goroutines step nodes: the caller of Run
	// steps nodes too, joined by up to Workers-1 helpers, capped at
	// GOMAXPROCS-1. Every tick is shared, each worker starting at its
	// own block of nodes; <= 1 steps every tick serially. The value
	// never changes any output, only wall-clock.
	Workers int
	// Telemetry enables the fleet collector and per-node collectors.
	Telemetry bool
}

// DefaultConfig returns a small runnable fleet.
func DefaultConfig() Config {
	return Config{
		Nodes:      8,
		Profile:    "quad,biglittle",
		Balancer:   "smartbalance",
		Policy:     string(PolicyEnergy),
		Arrival:    "diurnal",
		Classes:    strings.Join(workload.RequestClasses(), ","),
		Seed:       1,
		DurationNs: 400e6,
		TickNs:     5e6,
		Workers:    1,
	}
}

// withDefaults resolves zero-valued optional fields.
func (c Config) withDefaults() Config {
	if c.TickNs == 0 {
		c.TickNs = 5e6
	}
	if c.DrainNs == 0 {
		c.DrainNs = c.DurationNs
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Classes == "" {
		c.Classes = strings.Join(workload.RequestClasses(), ",")
	}
	return c
}

// Fleet is one constructed run; call Run exactly once.
type Fleet struct {
	cfg    Config
	policy Policy
	nodes  []*Node
	proc   *Arrival
	pick   *picker

	reqStream *rng.Rand // request classes and jitter seeds
	classes   []string

	tel     *telemetry.Collector
	latHist *telemetry.Histogram

	nextID   uint64
	requests int
	latNs    []int64 // every completion latency, canonical order
	arrBuf   []int64 // per-tick arrival scratch

	pool *stepPool // Run's helpers; nil when every tick steps serially
}

// latencyBoundsMs are the fleet latency histogram's upper bounds.
var latencyBoundsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// New validates the config and builds the fleet: nodes, arrival
// process, dispatcher, and (optionally) telemetry.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 node, have %d", cfg.Nodes)
	}
	if cfg.DurationNs <= 0 {
		return nil, fmt.Errorf("fleet: non-positive duration %d", cfg.DurationNs)
	}
	if cfg.TickNs <= 0 || cfg.TickNs > cfg.DurationNs {
		return nil, fmt.Errorf("fleet: tick %dns outside (0, duration]", cfg.TickNs)
	}
	policy, err := ParsePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	classes, err := splitClasses(cfg.Classes)
	if err != nil {
		return nil, err
	}

	// One derived stream per concern: arrival draws, request draws, and
	// per-node kernel/annealer seeds, all chained off Config.Seed.
	arrState := cfg.Seed ^ arrivalSeedTag
	proc, err := ParseArrival(cfg.Arrival, rng.New(rng.Splitmix64(&arrState)))
	if err != nil {
		return nil, err
	}
	reqState := cfg.Seed ^ requestSeedTag
	f := &Fleet{
		cfg:       cfg,
		policy:    policy,
		proc:      proc,
		reqStream: rng.New(rng.Splitmix64(&reqState)),
		classes:   classes,
	}

	if cfg.Telemetry {
		f.tel = telemetry.New()
		f.latHist = f.tel.Histogram("fleet_latency_ms", latencyBoundsMs)
	}

	plats := strings.Split(cfg.Profile, ",")
	nodeState := cfg.Seed
	for i := 0; i < cfg.Nodes; i++ {
		kernelSeed := rng.Splitmix64(&nodeState)
		annealSeed := rng.Splitmix64(&nodeState)
		var ntel *telemetry.Collector
		if cfg.Telemetry {
			ntel = telemetry.New()
		}
		platName := strings.TrimSpace(plats[i%len(plats)])
		n, err := newNode(i, platName, cfg.Balancer, cfg.Seed, kernelSeed, annealSeed, ntel)
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	f.pick = newPicker(policy, f.nodes)

	if f.tel != nil {
		f.tel.SetMeta("tier", "fleet")
		f.tel.SetMeta("nodes", strconv.Itoa(cfg.Nodes))
		f.tel.SetMeta("profile", cfg.Profile)
		f.tel.SetMeta("balancer", cfg.Balancer)
		f.tel.SetMeta("policy", string(policy))
		f.tel.SetMeta("arrival", f.proc.Spec())
		f.tel.SetMeta("classes", strings.Join(classes, ","))
		f.tel.SetMeta("seed", strconv.FormatUint(cfg.Seed, 10))
		f.tel.SetMeta("duration_ms", strconv.FormatInt(cfg.DurationNs/1e6, 10))
		f.tel.SetMeta("tick_ms", strconv.FormatInt(cfg.TickNs/1e6, 10))
		// Workers is deliberately absent: the export must be
		// byte-identical for any worker count.
	}
	return f, nil
}

// splitClasses validates the class mix against the known classes.
func splitClasses(spec string) ([]string, error) {
	known := workload.RequestClasses()
	var out []string
	for _, c := range strings.Split(spec, ",") {
		c = strings.TrimSpace(c)
		found := false
		for _, k := range known {
			if c == k {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fleet: unknown request class %q (known: %v)", c, known)
		}
		out = append(out, c)
	}
	return out, nil
}

// Telemetry returns the fleet collector (nil unless Config.Telemetry).
func (f *Fleet) Telemetry() *telemetry.Collector { return f.tel }

// Run executes the whole fleet simulation: admit arrivals for
// DurationNs in TickNs windows, then drain in-flight requests for up
// to DrainNs more, check every node's kernel invariants (the first
// violation in node-ID order fails the run), and distill the result.
//
// Each tick is: take the window's arrivals from the arrival process
// (serial; drain ticks take none) → step every node to the window's
// end (shared with the pool's helpers) → harvest completions in
// node-ID order (serial) → dispatch the window's arrivals on fresh
// signals (serial).
// Dispatched requests spawn at the next tick boundary, so a request's
// latency includes up to one tick of dispatch quantisation — the price
// of a deterministic parallel section.
func (f *Fleet) Run() (*Result, error) {
	if h := min(f.cfg.Workers, len(f.nodes), runtime.GOMAXPROCS(0)) - 1; h > 0 {
		f.pool = startPool(f.nodes, h)
		defer f.pool.stop()
	}
	deadline := f.cfg.DurationNs + f.cfg.DrainNs
	var now int64
	for tick := 0; now < f.cfg.DurationNs || (f.outstanding() > 0 && now < deadline); tick++ {
		admit := now < f.cfg.DurationNs
		limit := deadline
		if admit {
			limit = f.cfg.DurationNs
		}
		end := min(now+f.cfg.TickNs, limit)
		f.arrBuf = f.arrBuf[:0]
		if admit {
			f.arrBuf = f.proc.Until(end, f.arrBuf)
		}
		if err := f.stepNodes(end); err != nil {
			return nil, err
		}
		completed := f.harvest()
		for _, at := range f.arrBuf {
			f.dispatch(at)
		}
		f.recordTick(tick, now, end, len(f.arrBuf), completed)
		now = end
	}
	for _, n := range f.nodes {
		if err := n.kern.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("fleet: node %d: post-run invariant violation: %w", n.ID, err)
		}
	}
	res := f.result(now)
	f.exportTelemetry(res)
	return res, nil
}

// dispatch admits one request: class and jitter seed from the request
// stream, destination from the policy. Serial section.
func (f *Fleet) dispatch(atNs int64) {
	cls := f.classes[0]
	if len(f.classes) > 1 {
		cls = f.classes[f.reqStream.Intn(len(f.classes))]
	}
	rq := Request{
		ID:        f.nextID,
		ArrivalNs: atNs,
		Class:     cls,
		Seed:      f.reqStream.Uint64(),
	}
	f.nextID++
	f.requests++
	f.pick.pick().assign(rq)
}

// stepNodes advances every node to toNs. Without a pool the caller
// steps them in node-ID order and returns the first error; with one,
// the tick is shared with the pool's helpers. Each step touches only
// node-local state, and errors surface in node-ID order, so the outcome
// is identical to the serial path.
func (f *Fleet) stepNodes(toNs int64) error {
	if f.pool == nil {
		for _, n := range f.nodes {
			if err := n.step(toNs); err != nil {
				return err
			}
		}
		return nil
	}
	f.pool.share(toNs)
	for _, n := range f.nodes {
		if n.stepErr != nil {
			return n.stepErr
		}
	}
	return nil
}

// spinYields is how many times an idle helper yields (runtime.Gosched)
// waiting for the next tick before it parks. It is a count, not a
// time, because the fleet reads no clock. At about 0.2 µs a yield on
// an otherwise idle CPU it lasts about 0.8 ms, far longer than the
// serial sections between two ticks, so a helper joins each tick at
// once and parks only when Run stops publishing them: over five runs
// of the canned 8-node fleet at two workers (1,082 ticks each) the
// helper never parked.
const spinYields = 4096

// stepPool is the helper side of Run's node stepping: goroutines that
// live as long as Run and join its caller in every tick. A tick is a
// generation: the caller publishes its horizon and generation, then
// caller and helpers each claim and step nodes from their own block
// on. Between generations a helper spins a bounded number of yields,
// then parks on its wake channel.
type stepPool struct {
	nodes []*Node
	// gen is the current generation: the number of ticks shared so far.
	gen atomic.Uint64
	// claims[i] is the generation that stepped node i. A worker of
	// generation g takes node i by swapping g-1 for g, so exactly one
	// worker steps it per generation, and a worker still scanning in
	// an older generation claims nothing.
	claims []atomic.Uint64
	// toNs is the current generation's horizon. The caller writes it
	// before publishing the generation and only after every node of
	// the previous one is stepped.
	toNs int64
	// stepped counts the current generation's stepped nodes.
	stepped atomic.Int64
	stopped atomic.Bool
	parked  []atomic.Bool
	wake    []chan struct{} // one slot per helper
	exited  sync.WaitGroup
}

// startPool starts n helpers over nodes.
func startPool(nodes []*Node, n int) *stepPool {
	p := &stepPool{nodes: nodes, claims: make([]atomic.Uint64, len(nodes)),
		parked: make([]atomic.Bool, n), wake: make([]chan struct{}, n)}
	p.exited.Add(n)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.help(i)
	}
	return p
}

// share steps every node to toNs with whichever helpers join, and
// returns once every node is stepped.
func (p *stepPool) share(toNs int64) {
	p.toNs = toNs
	p.stepped.Store(0)
	g := p.gen.Add(1)
	for i := range p.wake {
		if p.parked[i].Load() {
			p.signal(i)
		}
	}
	p.steps(0, g)
	// Every node is claimed: wait for the ones helpers still step.
	for p.stepped.Load() < int64(len(p.nodes)) {
		runtime.Gosched()
	}
}

// steps is worker w's pass over generation g. Of W workers (the
// caller is worker 0), w visits every node once, from node w·N/W
// around to the one before, and steps each node it claims. So the
// same worker, mostly on the same core, steps a node tick after tick;
// another steps it only when it finishes its own block first and
// steals the node to finish the tick. The plain load skips a claimed
// node without taking its claim word's cache line for writing.
func (p *stepPool) steps(w int, g uint64) {
	i := w * len(p.nodes) / (len(p.wake) + 1)
	for range p.nodes {
		if c := &p.claims[i]; c.Load() != g && c.CompareAndSwap(g-1, g) {
			n := p.nodes[i]
			n.stepErr = n.step(p.toNs)
			p.stepped.Add(1)
		}
		if i++; i == len(p.nodes) {
			i = 0
		}
	}
}

// help is helper id's loop, as worker id+1: wait for a generation it
// has not joined, spinning, then parked; join it; repeat until
// stopped.
func (p *stepPool) help(id int) {
	defer p.exited.Done()
	var joined uint64
	for {
		for spins := 0; p.gen.Load() == joined; spins++ {
			if p.stopped.Load() {
				return
			}
			if spins < spinYields {
				runtime.Gosched()
				continue
			}
			// Park. The caller reads parked after publishing a
			// generation, and this re-reads the generation after
			// setting it, so one of the two sees the other: no
			// wake-up is lost.
			p.parked[id].Store(true)
			if p.gen.Load() == joined && !p.stopped.Load() {
				<-p.wake[id]
			}
			p.parked[id].Store(false)
			spins = 0
		}
		joined = p.gen.Load()
		p.steps(id+1, joined)
	}
}

// signal wakes helper id if it is parked or about to park; a token
// left in its slot costs it one extra spin.
func (p *stepPool) signal(id int) {
	select {
	case p.wake[id] <- struct{}{}:
	default:
	}
}

// stop ends the helpers and returns once they have exited. A spinning
// helper sees the flag at its next yield, not at the end of its spin;
// a parked one is woken to see it. No generation is in flight, so none
// of them touches a node again.
func (p *stepPool) stop() {
	p.stopped.Store(true)
	for i := range p.wake {
		p.signal(i)
	}
	p.exited.Wait()
}

// harvest folds the tick's completions into the fleet accounting, in
// node-ID order (within a node, latencies are already in the node's
// canonical sorted order). Serial section.
func (f *Fleet) harvest() int {
	completed := 0
	for _, n := range f.nodes {
		for _, lat := range n.tickLatNs {
			f.latNs = append(f.latNs, lat)
			f.latHist.Observe(float64(lat) / 1e6)
		}
		completed += len(n.tickLatNs)
	}
	return completed
}

// recordTick emits the tick's telemetry epoch: its span, then the
// anomalies the nodes recorded while stepping through it, in node-ID
// order, each detail naming its node. No-op without a collector.
func (f *Fleet) recordTick(tick int, startNs, endNs int64, arrivals, completed int) {
	if f.tel == nil {
		return
	}
	f.tel.BeginEpoch(tick, startNs)
	f.tel.Span("tick", startNs, endNs-startNs,
		telemetry.Int("arrivals", int64(arrivals)),
		telemetry.Int("completed", int64(completed)),
		telemetry.Int("inflight", int64(f.outstanding())),
	)
	for _, n := range f.nodes {
		as := n.tel.Anomalies()
		for _, a := range as[n.copied:] {
			f.tel.Anomaly(a.AtNs, a.Reason, "node "+strconv.Itoa(n.ID)+": "+a.Detail)
		}
		n.copied = len(as)
	}
}

// outstanding counts requests assigned but not completed, fleet-wide.
func (f *Fleet) outstanding() int {
	total := 0
	for _, n := range f.nodes {
		total += n.queueDepth()
	}
	return total
}

// NodeStats is one node's distilled outcome.
type NodeStats struct {
	ID               int
	Platform         string
	Requests         int
	Completed        int
	EnergyJ          float64
	JoulesPerRequest float64 // whole-run energy over completions; 0 if none completed
	P99Ms            float64 // the node's p99 latency EWMA at run end
}

// Result is the distilled outcome of one fleet run.
type Result struct {
	Nodes   int
	Policy  Policy
	Arrival string // canonical spec

	Requests  int // admitted by the arrival process
	Completed int
	InFlight  int // still outstanding when the drain deadline hit

	DurationNs int64 // admission window
	ElapsedNs  int64 // admission + drain actually simulated

	EnergyJ          float64 // fleet-wide, idle and drain included
	JoulesPerRequest float64 // EnergyJ over Completed; 0 if none completed

	P50Ms float64
	P95Ms float64
	P99Ms float64
	MaxMs float64

	PerNode []NodeStats
}

// result distills the run.
func (f *Fleet) result(elapsedNs int64) *Result {
	res := &Result{
		Nodes:      len(f.nodes),
		Policy:     f.policy,
		Arrival:    f.proc.Spec(),
		Requests:   f.requests,
		Completed:  len(f.latNs),
		InFlight:   f.outstanding(),
		DurationNs: f.cfg.DurationNs,
		ElapsedNs:  elapsedNs,
	}
	for _, n := range f.nodes {
		e := n.kern.TotalEnergyJ()
		ns := NodeStats{
			ID:        n.ID,
			Platform:  n.Platform,
			Requests:  n.requests,
			Completed: n.completed,
			EnergyJ:   e,
			P99Ms:     n.p99EWMANs / 1e6,
		}
		if n.completed > 0 {
			ns.JoulesPerRequest = e / float64(n.completed)
		}
		res.EnergyJ += e
		res.PerNode = append(res.PerNode, ns)
	}
	if res.Completed > 0 {
		res.JoulesPerRequest = res.EnergyJ / float64(res.Completed)
		sorted := slices.Clone(f.latNs)
		slices.Sort(sorted)
		res.P50Ms = float64(quantile(sorted, 0.50)) / 1e6
		res.P95Ms = float64(quantile(sorted, 0.95)) / 1e6
		res.P99Ms = float64(quantile(sorted, 0.99)) / 1e6
		res.MaxMs = float64(sorted[len(sorted)-1]) / 1e6
	}
	return res
}

// exportTelemetry folds the result and the per-node collectors into
// the fleet collector: fleet totals first, then per-node rollups in
// node-ID order — the canonical merge order the byte-identity
// contract depends on.
func (f *Fleet) exportTelemetry(res *Result) {
	if f.tel == nil {
		return
	}
	f.tel.Counter("fleet_requests_total").Add(int64(res.Requests))
	f.tel.Counter("fleet_completed_total").Add(int64(res.Completed))
	f.tel.Gauge("fleet_inflight").Set(float64(res.InFlight))
	f.tel.Gauge("fleet_energy_j").Set(res.EnergyJ)
	f.tel.Gauge("fleet_joules_per_request").Set(res.JoulesPerRequest)
	f.tel.Gauge("fleet_p50_ms").Set(res.P50Ms)
	f.tel.Gauge("fleet_p95_ms").Set(res.P95Ms)
	f.tel.Gauge("fleet_p99_ms").Set(res.P99Ms)
	f.tel.Gauge("fleet_max_ms").Set(res.MaxMs)
	for i, n := range f.nodes {
		ns := &res.PerNode[i]
		id := strconv.Itoa(n.ID)
		f.tel.Counter(telemetry.Name("fleet_node_requests_total", "node", id)).Add(int64(ns.Requests))
		f.tel.Counter(telemetry.Name("fleet_node_completed_total", "node", id)).Add(int64(ns.Completed))
		f.tel.Gauge(telemetry.Name("fleet_node_energy_j", "node", id)).Set(ns.EnergyJ)
		f.tel.Gauge(telemetry.Name("fleet_node_joules_per_request", "node", id)).Set(ns.JoulesPerRequest)
		f.tel.Gauge(telemetry.Name("fleet_node_p99_ms", "node", id)).Set(ns.P99Ms)
		f.foldNode(n)
	}
}

// foldNode re-emits one node collector's counters and gauges under a
// node-prefixed key (node003_kernel_events_total{...}), making each
// node's kernel-level signals part of the fleet's single JSONL export
// — the same telemetry bus the intra-node tier already speaks.
// Histograms and spans stay node-local: the fleet's epoch timeline is
// the tick sequence, and interleaving per-node kernel epochs into it
// would corrupt that contract. Node anomalies are not folded here:
// recordTick copies them into the tick they fired in.
func (f *Fleet) foldNode(n *Node) {
	if n.tel == nil {
		return
	}
	prefix := fmt.Sprintf("node%03d_", n.ID)
	for _, m := range n.tel.Metrics() {
		switch m.Kind {
		case telemetry.KindCounter:
			f.tel.Counter(prefix + m.Key).Add(int64(m.Value))
		case telemetry.KindGauge:
			f.tel.Gauge(prefix + m.Key).Set(m.Value)
		}
	}
}

// String renders the result compactly.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet nodes=%d policy=%s arrival=%s\n", r.Nodes, r.Policy, r.Arrival)
	fmt.Fprintf(&sb, "  requests=%d completed=%d inflight=%d elapsed=%.0fms\n",
		r.Requests, r.Completed, r.InFlight, float64(r.ElapsedNs)/1e6)
	fmt.Fprintf(&sb, "  energy=%.4gJ joules/request=%.4g\n", r.EnergyJ, r.JoulesPerRequest)
	fmt.Fprintf(&sb, "  latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs)
	for i := range r.PerNode {
		n := &r.PerNode[i]
		fmt.Fprintf(&sb, "  node %d (%s): requests=%d completed=%d energy=%.4gJ j/req=%.4g p99~%.2fms\n",
			n.ID, n.Platform, n.Requests, n.Completed, n.EnergyJ, n.JoulesPerRequest, n.P99Ms)
	}
	return sb.String()
}
