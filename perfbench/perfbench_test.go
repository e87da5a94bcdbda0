package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"smartbalance/internal/balancer"
	"smartbalance/internal/contention"
	"smartbalance/internal/core"
	"smartbalance/internal/fleet"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
)

var nodeNames = []string{"node-quad", "node-contended", "node-scale"}

// shortNode returns the named node workload cut to a few epochs.
func shortNode(t *testing.T, name string, epochs int64) nodeWorkload {
	t.Helper()
	w, ok := nodeWorkloadByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	w.simNs = epochs * kernel.DefaultConfig().EpochNs
	return w
}

// plainRun builds and runs the workload with no benchmark hook at all —
// no observer, no Rebalance wrapper, no tracer — in one kernel.Run.
func plainRun(t *testing.T, w nodeWorkload, seed uint64) *kernel.RunStats {
	t.Helper()
	specs, err := w.specs(seed)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := w.platform()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.NewWithOptions(plat, machine.Options{Contention: contention.Spec{Enabled: w.contention}})
	if err != nil {
		t.Fatal(err)
	}
	var bal kernel.Balancer = balancer.Vanilla{}
	if w.smart {
		tc := core.DefaultTrainConfig()
		tc.Seed = seed
		pred, err := core.Train(plat.Types, tc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Anneal.Seed = seed
		ctrl, err := core.New(pred, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Contention() != nil {
			ctrl.SetContention(m.Contention())
		}
		bal = ctrl
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Seed = seed
	k, err := kernel.New(m, bal, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if _, err := k.Spawn(&specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(w.simNs); err != nil {
		t.Fatal(err)
	}
	return k.Stats()
}

// TestHooksLeaveRunStatsUnchanged: the epoch observer, the Rebalance
// wrapper and the span recorder only watch; a fully hooked run reports
// exactly the RunStats of an unhooked one.
func TestHooksLeaveRunStatsUnchanged(t *testing.T) {
	for _, name := range nodeNames {
		t.Run(name, func(t *testing.T) {
			w := shortNode(t, name, 8)
			want := plainRun(t, w, 7)
			r, err := runNode(w, 7, newHostClock(), &tracer{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.violations) > 0 {
				t.Fatalf("checks failed: %v", r.violations)
			}
			if !reflect.DeepEqual(r.stats, want) {
				t.Errorf("hooked run stats differ from the unhooked run:\nhooked:   %v\nunhooked: %v", r.stats, want)
			}
		})
	}
}

// TestSeedChangesInputs: the seed argument is the only source of the
// inputs — equal seeds give equal inputs, different seeds different ones.
func TestSeedChangesInputs(t *testing.T) {
	if reflect.DeepEqual(variantSeeds(1), variantSeeds(2)) {
		t.Error("seeds 1 and 2 derive the same input variants")
	}
	if !reflect.DeepEqual(variantSeeds(3), variantSeeds(3)) {
		t.Error("seed 3 derives different variants on two calls")
	}
	for _, name := range nodeNames {
		w, _ := nodeWorkloadByName(name)
		a, err := w.specs(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.specs(2)
		again, _ := w.specs(1)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 generate the same threads", name)
		}
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: seed 1 generates different threads on two calls", name)
		}
	}
	results := map[uint64]*fleet.Result{}
	for _, seed := range []uint64{1, 2} {
		f, err := fleet.New(fleetConfig(seed, 200e6, 1))
		if err != nil {
			t.Fatal(err)
		}
		if results[seed], err = f.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(results[1], results[2]) {
		t.Error("fleet-bursty: seeds 1 and 2 produce the same run")
	}
}

// TestSpansNest: in a traced run every span lies inside its parent, each
// Rebalance hangs under the epoch it opened, the epochs tile the
// kernel.Run span, and Rebalance plus kernel self time is each epoch's
// time; what no layer span covers is the reported residual.
func TestSpansNest(t *testing.T) {
	tr := &tracer{}
	w := shortNode(t, "node-quad", 10)
	for run := 0; run < 2; run++ {
		if _, err := runNode(w, 3, newHostClock(), tr, run); err != nil {
			t.Fatal(err)
		}
	}
	self := tr.selfTimes()
	var rebalances, epochs int
	var unattributed, total int64
	for i, s := range tr.spans {
		if s.dur() < 0 || self[i] < 0 {
			t.Fatalf("span %d %+v: negative duration or children overrun it (self %d)", i, s, self[i])
		}
		if s.Parent < 0 {
			if s.Name != spanIteration {
				t.Errorf("root span %d is %s, want %s", i, s.Name, spanIteration)
			}
			total += s.dur()
			unattributed += self[i]
			continue
		}
		p := tr.spans[s.Parent]
		if s.Parent >= i || s.Start < p.Start || s.End > p.End || s.Run != p.Run {
			t.Errorf("span %d %+v is not inside its parent %+v", i, s, p)
		}
		switch s.Name {
		case spanRebalance:
			rebalances++
			if p.Name != spanEpoch || p.Start > s.Start {
				t.Errorf("rebalance span %d hangs under %s", i, p.Name)
			}
			if self[s.Parent]+s.dur() != p.dur() {
				t.Errorf("epoch %d: kernel self %d + rebalance %d != epoch %d", s.Parent, self[s.Parent], s.dur(), p.dur())
			}
		case spanEpoch:
			epochs++
			if p.Name != spanKernelRun {
				t.Errorf("epoch span %d hangs under %s", i, p.Name)
			}
		case spanKernelRun:
			unattributed += self[i]
			if self[i] != 0 {
				t.Errorf("kernel.run span %d: epochs leave %d ns uncovered", i, self[i])
			}
		}
	}
	// 10 epochs per run: a TraceEpoch (and a Rebalance) at each 60 ms
	// boundary, and one leading epoch span before the first boundary.
	if rebalances != 2*10 || epochs != 2*11 {
		t.Errorf("got %d rebalance and %d epoch spans, want 20 and 22", rebalances, epochs)
	}
	if got, want := tr.residual(), float64(unattributed)/float64(total); got != want || got < 0 || got >= 1 {
		t.Errorf("residual = %v, want %v in [0, 1)", got, want)
	}
}

// TestOutputContract: the last line is the JSON result with exactly the
// gated end-to-end metrics, or every per-layer metric when traced.
func TestOutputContract(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "node-contended", "-seed", "5", "-seconds", "0.01", "-trace", trace, "-spans", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		want := map[string]bool{}
		if trace == "0" {
			for _, n := range gatedEndToEnd {
				want[n] = true
			}
		} else {
			for _, m := range perLayer {
				want[m.name] = true
			}
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Errorf("trace %s: result %+v", trace, res)
		}
		for n := range want {
			if _, ok := res.Metrics[n]; !ok {
				t.Errorf("trace %s: metric %s missing", trace, n)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
