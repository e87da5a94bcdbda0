package core

import (
	"testing"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/workload"
)

func TestFakeClockAdvancesByStep(t *testing.T) {
	c := NewFakeClock(time.Millisecond)
	t0 := c.Now()
	t1 := c.Now()
	if d := t1.Sub(t0); d != time.Millisecond {
		t.Errorf("step = %v, want 1ms", d)
	}
	frozen := &FakeClock{}
	if !frozen.Now().Equal(frozen.Now()) {
		t.Error("zero-value FakeClock is not frozen")
	}
}

func TestRealClockProgresses(t *testing.T) {
	c := RealClock()
	t0 := c.Now()
	if sinceOn(c, t0) < 0 {
		t.Error("real clock ran backwards")
	}
}

// TestSmartBalanceOverheadDeterministicWithFakeClock is the invariant
// the Clock refactor buys: with an injected FakeClock, the measured
// per-phase overhead is a pure function of the run — identical across
// repetitions, with the sense phase charged exactly one step per epoch.
func TestSmartBalanceOverheadDeterministicWithFakeClock(t *testing.T) {
	const step = time.Microsecond
	run := func() PhaseOverhead {
		pred, err := Train(arch.Table2Types(), DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Clock = NewFakeClock(step)
		sb, err := New(pred, cfg)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := workload.Mix("Mix1", 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		runScenario(t, arch.QuadHMP(), sb, specs, 600e6)
		return sb.Overhead()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("overhead not deterministic under FakeClock:\n  run1 %+v\n  run2 %+v", a, b)
	}
	if a.Epochs == 0 || a.Total() == 0 {
		t.Fatalf("no overhead recorded: %+v", a)
	}
	if want := time.Duration(a.Epochs) * step; a.Sense != want {
		t.Errorf("Sense = %v, want exactly %v (one step per epoch)", a.Sense, want)
	}
}
