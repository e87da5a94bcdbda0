package smartbalance

import (
	"bytes"
	"testing"
	"time"

	"smartbalance/internal/kernel"
)

// telemetryRun builds a SmartBalance system, runs it with telemetry
// attached (and, with withTap, a second kernel observer installed
// before it that sums slice instructions), and returns the pieces.
func telemetryRun(t *testing.T, seed uint64, withTap bool) (*System, *TelemetryCollector, *int64) {
	t.Helper()
	plat := QuadHMP()
	pred, err := TrainPredictor(plat.Types, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSmartBalanceConfig()
	cfg.Anneal.Seed = seed
	cfg.Clock = NewFakeClock(time.Microsecond)
	bal, err := NewSmartBalanceController(pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := DefaultKernelConfig()
	kcfg.Seed = seed
	sys, err := NewSystemWithConfig(plat, bal, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	var tapped *int64
	if withTap {
		tapped = new(int64)
		sys.Kernel().AddObserver(func(e kernel.TraceEvent) {
			if e.Kind == kernel.TraceSlice {
				*tapped += int64(e.Instr)
			}
		})
	}
	tel := sys.EnableTelemetry()
	tel.SetMeta("seed", "s") // fixed label: seed differences must not touch the meta
	specs, err := Mix("Mix1", 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SpawnAll(specs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return sys, tel, tapped
}

func TestTelemetryFacadeEndToEnd(t *testing.T) {
	sys, tel, _ := telemetryRun(t, 1, false)
	if sys.Telemetry() != tel {
		t.Fatal("Telemetry() does not return the installed collector")
	}
	tr := tel.Trace()
	if len(tr.Epochs) == 0 {
		t.Fatal("no epochs collected")
	}
	phases := map[string]int{}
	for _, e := range tr.Epochs {
		for _, s := range e.Spans {
			phases[s.Phase]++
		}
	}
	for _, p := range []string{"sense", "predict", "decide", "migrate"} {
		if phases[p] == 0 {
			t.Errorf("no %q spans collected", p)
		}
	}
	if tr.Meta["balancer"] != "smartbalance" {
		t.Errorf("meta balancer = %q", tr.Meta["balancer"])
	}
	// Kernel counters flow through the adapter, and agree with RunStats.
	if got, want := tel.Counter("kernel_instructions_total").Value(), int64(sys.Stats().TotalInstructions()); got != want {
		t.Errorf("kernel_instructions_total = %d, stats say %d", got, want)
	}
	if tel.Counter("smartbalance_epochs_total").Value() == 0 {
		t.Error("controller metrics missing")
	}
}

// TestTelemetryOneRecordPerKernelEpoch checks the single epoch
// announcer: the kernel adapter opens one record per kernel epoch,
// numbered 1..Stats().Epochs in order, and the controller's spans land
// in the record of the epoch that emitted them.
func TestTelemetryOneRecordPerKernelEpoch(t *testing.T) {
	sys, tel, _ := telemetryRun(t, 1, false)
	tr := tel.Trace()
	if n := sys.Stats().Epochs; n == 0 || len(tr.Epochs) != n {
		t.Fatalf("trace holds %d epoch records, the kernel ran %d epochs", len(tr.Epochs), n)
	}
	for i, e := range tr.Epochs {
		if e.Epoch != i+1 {
			t.Fatalf("record %d numbers epoch %d, want %d", i, e.Epoch, i+1)
		}
		if len(e.Spans) == 0 {
			t.Errorf("epoch %d has no controller spans", e.Epoch)
		}
		for _, s := range e.Spans {
			if s.Epoch != e.Epoch {
				t.Errorf("span %s filed under epoch %d", s, e.Epoch)
			}
		}
	}
}

// TestTelemetryDeterministic is the facade-level byte-identity check:
// same seed, same bytes; different seed, a localisable divergence.
func TestTelemetryDeterministic(t *testing.T) {
	export := func(seed uint64) []byte {
		_, tel, _ := telemetryRun(t, seed, false)
		var buf bytes.Buffer
		if err := WriteTelemetryJSONL(&buf, tel.Trace()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(1), export(1)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed telemetry exports differ")
	}
	c := export(2)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical telemetry (suspicious)")
	}
	ta, err := ReadTelemetryJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := ReadTelemetryJSONL(bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	d := FirstTelemetryDivergence(ta, tc)
	if d == nil {
		t.Fatal("diff found no divergence between different-seed traces")
	}
	if d.Kind != "epoch" {
		t.Fatalf("divergence kind = %q, want the first divergent epoch, not %+v", d.Kind, d)
	}
}

// TestTraceAndTelemetryCompose is the multi-observer regression: the
// collector and another kernel observer (sbsim -trace's raw tail, say)
// must not race for a single observer slot.
func TestTraceAndTelemetryCompose(t *testing.T) {
	_, tel, tapped := telemetryRun(t, 1, true)
	if *tapped == 0 {
		t.Fatal("second observer starved: telemetry stole the observer slot")
	}
	if got := tel.Counter("kernel_instructions_total").Value(); got != *tapped {
		t.Fatalf("collector saw %d instructions, second observer %d — observers see different streams",
			got, *tapped)
	}
	// And attaching telemetry twice replaces rather than double-counts.
	sys, tel2, _ := telemetryRun(t, 1, true)
	fresh := sys.EnableTelemetry()
	if err := sys.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sys.Telemetry() != fresh {
		t.Fatal("second EnableTelemetry did not install")
	}
	if fresh.Counter("kernel_events_total{kind=\"slice\"}").Value() == 0 {
		t.Fatal("replacement collector sees no events")
	}
	// The old collector must stop growing after replacement.
	before := tel2.Counter("kernel_instructions_total").Value()
	if err := sys.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if after := tel2.Counter("kernel_instructions_total").Value(); after != before {
		t.Fatalf("replaced collector still receiving events (%d -> %d)", before, after)
	}
}
