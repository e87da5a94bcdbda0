package fleet

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartbalance/internal/kernel"
	"smartbalance/internal/telemetry"
)

// burstyGateConfig is the canned scenario the energy-policy gate (and
// sbfleet's TestStdoutAndTelemetryIdenticalAcrossWorkers) runs: a
// heterogeneous 8-node fleet under bursty traffic.
func burstyGateConfig(policy string) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.Policy = policy
	cfg.Arrival = "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25"
	cfg.DurationNs = 400e6
	cfg.Seed = 7
	return cfg
}

// runJSONL executes one run and returns its telemetry export bytes and
// result.
func runJSONL(t *testing.T, cfg Config) ([]byte, *Result) {
	t.Helper()
	cfg.Telemetry = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, f.Telemetry().Trace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestFixedSeedByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := burstyGateConfig("energy")
	base, baseRes := runJSONL(t, cfg)
	for _, workers := range []int{2, 4, 16} {
		c := cfg
		c.Workers = workers
		got, res := runJSONL(t, c)
		if !bytes.Equal(base, got) {
			t.Fatalf("workers=%d: telemetry JSONL differs from serial run (%d vs %d bytes)",
				workers, len(base), len(got))
		}
		if *resHeadline(res) != *resHeadline(baseRes) {
			t.Fatalf("workers=%d: result differs from serial run:\n%v\nvs\n%v", workers, res, baseRes)
		}
	}
}

// resHeadline projects the comparable scalar fields of a Result.
func resHeadline(r *Result) *struct {
	Req, Done, Inflight int
	Energy, JPR, P99    float64
} {
	return &struct {
		Req, Done, Inflight int
		Energy, JPR, P99    float64
	}{r.Requests, r.Completed, r.InFlight, r.EnergyJ, r.JoulesPerRequest, r.P99Ms}
}

// sharedTickConfig is the canned bursty scenario at the given worker
// count: at Workers > 1 every tick takes the shared path.
func sharedTickConfig(workers int) Config {
	cfg := burstyGateConfig("energy")
	cfg.Workers = workers
	return cfg
}

// sharedTicks is how many ticks f's pool shared; 0 without a pool.
func sharedTicks(f *Fleet) uint64 {
	if f.pool == nil {
		return 0
	}
	return f.pool.gen.Load()
}

// TestSharedTicksByteIdenticalAcrossWorkers runs the shared path
// whatever the runner's CPU count: helpers are capped at GOMAXPROCS-1,
// so on a 1-CPU runner TestFixedSeedByteIdenticalAcrossWorkers covers
// only the serial path. TestEveryTickIsShared checks that this
// configuration shares every tick.
func TestSharedTicksByteIdenticalAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base, baseRes := runJSONL(t, sharedTickConfig(1))
	for _, workers := range []int{2, 3, 8} {
		got, res := runJSONL(t, sharedTickConfig(workers))
		if !bytes.Equal(base, got) {
			t.Fatalf("workers=%d: telemetry JSONL differs from serial run (%d vs %d bytes)",
				workers, len(base), len(got))
		}
		if *resHeadline(res) != *resHeadline(baseRes) {
			t.Fatalf("workers=%d: result differs from serial run:\n%v\nvs\n%v", workers, res, baseRes)
		}
	}
}

// TestEveryTickIsShared pins the pool's claim protocol on the canned
// run at two workers. Every tick is one generation, and each
// generation claims every node once, by swapping the previous
// generation for its own in the node's claim word, so a worker still
// scanning an older generation claims nothing. Each worker scans from
// the first node of its own block, so a node stays with one worker
// unless another steals it to finish a tick.
func TestEveryTickIsShared(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := sharedTickConfig(2)
	cfg.Telemetry = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := f.pool
	if p == nil || len(p.wake) != 1 {
		t.Fatal("a two-worker run did not start one helper")
	}
	ticks := len(f.Telemetry().Trace().Epochs)
	g := p.gen.Load()
	if g != uint64(ticks) {
		t.Fatalf("pool ran %d generations, the run %d ticks", g, ticks)
	}
	claimed := func(want uint64) {
		t.Helper()
		for i := range p.claims {
			if c := p.claims[i].Load(); c != want {
				t.Fatalf("node %d last claimed in generation %d, want %d", i, c, want)
			}
		}
	}
	claimed(g)

	// Workers that scan the last generation, or the one before it,
	// only now find every node claimed and step none.
	for w := range 2 {
		p.steps(w, g-1)
		p.steps(w, g)
	}
	if s := p.stepped.Load(); s != int64(len(f.nodes)) {
		t.Fatalf("late workers stepped %d nodes", s-int64(len(f.nodes)))
	}
	claimed(g)

	// One more generation, a balancer epoch long, so that every node's
	// kernel announces one epoch while it steps; a worker that finds
	// the generation to itself steps every node from its own block on.
	var order []int
	for _, n := range f.nodes {
		n.kern.AddObserver(func(e kernel.TraceEvent) {
			if e.Kind == kernel.TraceEpoch {
				order = append(order, n.ID)
			}
		})
	}
	to := res.ElapsedNs
	for _, c := range []struct {
		worker int
		want   []int
	}{{1, []int{4, 5, 6, 7, 0, 1, 2, 3}}, {0, []int{0, 1, 2, 3, 4, 5, 6, 7}}} {
		order = order[:0]
		to += kernel.DefaultConfig().EpochNs
		p.toNs = to
		p.stepped.Store(0)
		g = p.gen.Add(1)
		p.steps(c.worker, g)
		if !slices.Equal(order, c.want) {
			t.Fatalf("worker %d alone stepped nodes %v, want %v", c.worker, order, c.want)
		}
		claimed(g)
	}
}

// TestNoHelperOutlivesRun checks that Run stops its helpers on every
// return path: after a run that succeeds, and after one whose nodes 3
// and 6 fail in the first tick, which is shared. The failing run must
// return node 3's error, as the serial path does. A last case stops a
// pool whose helpers have all parked.
func TestNoHelperOutlivesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// settle polls until no more goroutines run than before.
	settle := func(before int) {
		t.Helper()
		for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines left running, %d before", n, before)
		}
	}
	run := func(workers int, failing ...int) (*Fleet, error) {
		t.Helper()
		f, err := New(sharedTickConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range failing {
			f.nodes[id].assign(Request{Class: "no-such-class-" + strconv.Itoa(id)})
		}
		before := runtime.NumGoroutine()
		_, err = f.Run()
		settle(before)
		return f, err
	}

	f, err := run(4)
	if err != nil {
		t.Fatal(err)
	}
	if sharedTicks(f) == 0 {
		t.Fatal("no tick took the shared path")
	}

	_, serialErr := run(1, 3, 6)
	f, err = run(4, 3, 6)
	if err == nil || serialErr == nil {
		t.Fatalf("a node with an unknown request class did not fail the run: serial %v, shared %v", serialErr, err)
	}
	if err.Error() != serialErr.Error() {
		t.Fatalf("shared path returned %q, serial path %q", err, serialErr)
	}
	if !strings.Contains(err.Error(), `"no-such-class-3"`) {
		t.Fatalf("run returned %q, want node 3's error", err)
	}
	if sharedTicks(f) != 1 {
		t.Fatalf("failing run shared %d ticks, want the first one only", sharedTicks(f))
	}

	// Helpers that ran out of spin before the stop sit parked.
	before := runtime.NumGoroutine()
	p := startPool(f.nodes, 3)
	for i := range p.parked {
		for j := 0; !p.parked[i].Load(); j++ {
			if j == 1000 {
				t.Fatalf("helper %d never parked", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	p.stop()
	settle(before)
}

// TestNodesHoldOnlyRequestsInFlight: the harvest reaps each request it
// completes, so after Run every node's kernel lists exactly its
// requests in flight, serially and on the pool, both when the drain
// completes every request and when a 1 ms drain cuts it off.
func TestNodesHoldOnlyRequestsInFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, workers := range []int{1, 8} {
		for _, drainNs := range []int64{0, 1e6} {
			cfg := sharedTickConfig(workers)
			cfg.DrainNs = drainNs
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			outstanding, spawned := 0, 0
			for _, n := range f.nodes {
				tasks := n.kern.Tasks()
				if len(tasks) != len(n.inflight) {
					t.Fatalf("workers=%d drain=%d: node %d lists %d tasks, %d requests in flight",
						workers, drainNs, n.ID, len(tasks), len(n.inflight))
				}
				for _, task := range tasks {
					if _, ok := n.inflight[task.ID]; !ok || task.State() == kernel.StateFinished {
						t.Fatalf("workers=%d drain=%d: node %d lists task %d (%v), not in flight",
							workers, drainNs, n.ID, task.ID, task.State())
					}
				}
				outstanding += n.queueDepth()
				spawned += len(tasks)
			}
			if outstanding != res.InFlight || (drainNs > 0) != (spawned > 0) {
				t.Fatalf("workers=%d drain=%d: %d requests outstanding on the nodes (%d spawned), %d in the result",
					workers, drainNs, outstanding, spawned, res.InFlight)
			}
		}
	}
}

func TestFixedSeedByteIdenticalAcrossRuns(t *testing.T) {
	cfg := burstyGateConfig("energy")
	cfg.Workers = 4
	a, _ := runJSONL(t, cfg)
	b, _ := runJSONL(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("equal-seed runs produced different telemetry JSONL")
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	cfg := burstyGateConfig("energy")
	a, _ := runJSONL(t, cfg)
	cfg.Seed = 8
	b, _ := runJSONL(t, cfg)
	if bytes.Equal(a, b) {
		t.Fatal("seeds 7 and 8 produced identical telemetry JSONL")
	}
}

func TestEnergyPolicyBeatsBaselinesOnBurstyTraffic(t *testing.T) {
	// The headline acceptance gate: on the canned bursty scenario the
	// energy-aware dispatcher must complete everything and spend fewer
	// joules per request than round-robin AND least-loaded.
	jpr := map[string]float64{}
	for _, pol := range []string{"rr", "least", "energy"} {
		_, res := runJSONL(t, burstyGateConfig(pol))
		if res.Completed == 0 {
			t.Fatalf("%s: no requests completed", pol)
		}
		if res.InFlight > res.Requests/10 {
			t.Fatalf("%s: %d of %d requests still in flight after drain", pol, res.InFlight, res.Requests)
		}
		if res.P99Ms <= 0 {
			t.Fatalf("%s: p99 not reported", pol)
		}
		jpr[pol] = res.JoulesPerRequest
		t.Logf("%-7s j/req=%.5f", pol, res.JoulesPerRequest)
	}
	if jpr["energy"] >= jpr["rr"] {
		t.Errorf("energy policy (%.5f J/req) did not beat round-robin (%.5f)", jpr["energy"], jpr["rr"])
	}
	if jpr["energy"] >= jpr["least"] {
		t.Errorf("energy policy (%.5f J/req) did not beat least-loaded (%.5f)", jpr["energy"], jpr["least"])
	}
}

func TestPolicyChangesRouting(t *testing.T) {
	// Identical seeds, different policies: the arrival stream is the
	// same, the per-node assignment must not be.
	_, rr := runJSONL(t, burstyGateConfig("rr"))
	_, en := runJSONL(t, burstyGateConfig("energy"))
	if rr.Requests != en.Requests {
		t.Fatalf("same seed admitted %d vs %d requests", rr.Requests, en.Requests)
	}
	same := true
	for i := range rr.PerNode {
		if rr.PerNode[i].Requests != en.PerNode[i].Requests {
			same = false
			break
		}
	}
	if same {
		t.Error("rr and energy policies produced identical per-node assignments")
	}
}

func TestAccountingConsistent(t *testing.T) {
	_, res := runJSONL(t, burstyGateConfig("least"))
	var nodeReq, nodeDone int
	for _, n := range res.PerNode {
		nodeReq += n.Requests
		nodeDone += n.Completed
	}
	if nodeReq != res.Requests {
		t.Errorf("per-node requests sum to %d, fleet admitted %d", nodeReq, res.Requests)
	}
	if nodeDone != res.Completed {
		t.Errorf("per-node completions sum to %d, fleet counted %d", nodeDone, res.Completed)
	}
	if res.Completed+res.InFlight != res.Requests {
		t.Errorf("completed %d + inflight %d != admitted %d", res.Completed, res.InFlight, res.Requests)
	}
	if res.EnergyJ <= 0 {
		t.Error("fleet consumed no energy")
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.MaxMs < res.P99Ms {
		t.Errorf("latency percentiles disordered: p50=%v p99=%v max=%v", res.P50Ms, res.P99Ms, res.MaxMs)
	}
}

func TestTelemetryExportShape(t *testing.T) {
	raw, res := runJSONL(t, burstyGateConfig("energy"))
	tr, err := telemetry.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta["tier"] != "fleet" {
		t.Errorf("meta tier = %q, want fleet", tr.Meta["tier"])
	}
	if tr.Meta["policy"] != "energy" || tr.Meta["nodes"] != "8" {
		t.Errorf("meta policy/nodes = %q/%q", tr.Meta["policy"], tr.Meta["nodes"])
	}
	if _, ok := tr.Meta["workers"]; ok {
		t.Error("meta records workers; the export must not depend on it")
	}
	want := map[string]float64{
		"fleet_requests_total":     float64(res.Requests),
		"fleet_completed_total":    float64(res.Completed),
		"fleet_joules_per_request": res.JoulesPerRequest,
		"fleet_p99_ms":             res.P99Ms,
	}
	seen := map[string]bool{}
	var latCount int64
	for _, m := range tr.Metrics {
		if v, ok := want[m.Key]; ok {
			seen[m.Key] = true
			if m.Value != v { //sbvet:allow floateq(exact round-trip of an exported value, not a computed comparison)
				t.Errorf("metric %s = %v, want %v", m.Key, m.Value, v)
			}
		}
		if m.Key == "fleet_latency_ms" {
			latCount = m.Count
		}
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("metric %s missing from export", k)
		}
	}
	if latCount != int64(res.Completed) {
		t.Errorf("fleet_latency_ms observed %d completions, want %d", latCount, res.Completed)
	}
	if len(tr.Epochs) == 0 {
		t.Error("export has no tick epochs")
	}
	// Per-node rollups present for every node, in both the fleet_node_*
	// family and the node-prefixed kernel fold.
	perNode := 0
	folded := 0
	for _, m := range tr.Metrics {
		if len(m.Key) > 11 && m.Key[:11] == "fleet_node_" {
			perNode++
		}
		if len(m.Key) > 8 && m.Key[:4] == "node" && m.Key[7] == '_' {
			folded++
		}
	}
	if perNode < 5*8 {
		t.Errorf("expected >= 40 fleet_node_* metrics, found %d", perNode)
	}
	if folded == 0 {
		t.Error("no node-prefixed kernel metrics folded into the export")
	}
}

// TestTelemetryCarriesNodeAnomalies checks that the fleet trace holds
// every anomaly its nodes record, each naming its node and filed under
// the tick whose window holds it.
func TestTelemetryCarriesNodeAnomalies(t *testing.T) {
	cfg := burstyGateConfig("energy")
	cfg.Telemetry = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	total := 0
	for _, n := range f.nodes {
		for _, a := range n.tel.Anomalies() {
			a.Epoch = 0
			a.Detail = "node " + strconv.Itoa(n.ID) + ": " + a.Detail
			want[a.String()]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no node recorded an anomaly; the canned run is expected to fire triggers")
	}
	tr := f.Telemetry().Trace()
	if len(tr.Anomalies) != total {
		t.Fatalf("fleet trace holds %d anomalies, its nodes %d", len(tr.Anomalies), total)
	}
	ticks := map[int]telemetry.Span{}
	for _, e := range tr.Epochs {
		ticks[e.Epoch] = e.Spans[0]
	}
	for _, a := range tr.Anomalies {
		tick, ok := ticks[a.Epoch]
		if !ok || a.AtNs < tick.StartNs || a.AtNs > tick.StartNs+tick.DurNs {
			t.Errorf("anomaly %s lies outside its tick %s", a, tick)
		}
		a.Epoch = 0
		if want[a.String()] == 0 {
			t.Errorf("fleet anomaly %s matches no node anomaly", a)
		}
		want[a.String()]--
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero duration", func(c *Config) { c.DurationNs = 0 }},
		{"tick beyond duration", func(c *Config) { c.TickNs = c.DurationNs * 2 }},
		{"bad policy", func(c *Config) { c.Policy = "random" }},
		{"bad arrival", func(c *Config) { c.Arrival = "storm" }},
		{"bad class", func(c *Config) { c.Classes = "api,video" }},
		{"bad platform", func(c *Config) { c.Profile = "hexa" }},
		{"bad balancer", func(c *Config) { c.Balancer = "cfs" }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		}
	}
}

func TestSingleNodeSingleClass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.Profile = "quad"
	cfg.Classes = "api"
	cfg.Arrival = "uniform:rate=200"
	cfg.DurationNs = 100e6
	_, res := runJSONL(t, cfg)
	if res.Completed == 0 {
		t.Fatal("single-node fleet completed nothing")
	}
	if len(res.PerNode) != 1 || res.PerNode[0].Requests != res.Requests {
		t.Errorf("single node did not receive all %d requests", res.Requests)
	}
}

// admittedArrivals runs cfg and returns the arrival time of every
// request the fleet admitted, indexed by request ID. A node drops a
// request from its books in the harvest after the request exits, so
// the kernel reports each exit while the node still holds the request;
// requests still held when Run returns are read from the nodes.
func admittedArrivals(t *testing.T, cfg Config) []int64 {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]int64{}
	for _, n := range f.nodes {
		n.kern.AddObserver(func(e kernel.TraceEvent) {
			if rq, ok := n.inflight[e.Thread]; ok && e.Kind == kernel.TraceFinish {
				byID[rq.ID] = rq.ArrivalNs
			}
		})
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range f.nodes {
		for _, rq := range n.inflight {
			byID[rq.ID] = rq.ArrivalNs
		}
		for _, rq := range n.pending {
			byID[rq.ID] = rq.ArrivalNs
		}
	}
	if len(byID) != res.Requests {
		t.Fatalf("found %d of the %d admitted requests", len(byID), res.Requests)
	}
	out := make([]int64, len(byID))
	for id, at := range byID {
		out[id] = at
	}
	return out
}

// TestArrivalTimesIndependentOfTick: the tick quantises dispatch only,
// so the canned bursty run admits the same requests at the same times
// whatever its tick.
func TestArrivalTimesIndependentOfTick(t *testing.T) {
	var base []int64
	for _, tickMs := range []int64{1, 2, 5, 10} {
		cfg := burstyGateConfig("energy")
		cfg.TickNs = tickMs * 1e6
		got := admittedArrivals(t, cfg)
		if base == nil {
			base = got
			continue
		}
		if !slices.Equal(got, base) {
			i := 0
			for i < min(len(got), len(base)) && got[i] == base[i] {
				i++
			}
			t.Errorf("tick %d ms admits %d requests, 1 ms admits %d; they differ from request %d on",
				tickMs, len(got), len(base), i)
		}
	}
}
