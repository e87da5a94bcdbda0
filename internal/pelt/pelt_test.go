package pelt

import (
	"math"
	"testing"
	"testing/quick"

	"smartbalance/internal/rng"
)

func TestDecayHalvesAt32Periods(t *testing.T) {
	if math.Abs(decayN(32)-0.5) > 1e-12 {
		t.Fatalf("y^32 = %g, want 0.5", decayN(32))
	}
	if decayN(0) != 1 {
		t.Fatal("y^0 != 1")
	}
	if decayN(64) > 0.2500001 || decayN(64) < 0.2499999 {
		t.Fatalf("y^64 = %g, want 0.25", decayN(64))
	}
	if decayN(32*100) != 0 {
		t.Fatal("deep decay should underflow to 0")
	}
}

func TestAlwaysRunnableConvergesToOne(t *testing.T) {
	var tr Tracker
	tr.Transition(0, true, true)
	// 200 ms of continuous running.
	tr.Observe(200e6)
	if u := tr.Utilization(); u < 0.95 || u > 1 {
		t.Fatalf("always-running utilization %g after 200ms", u)
	}
	if l := tr.Load(); l < 0.95 || l > 1 {
		t.Fatalf("always-runnable load %g", l)
	}
}

func TestNeverRunnableStaysZero(t *testing.T) {
	var tr Tracker
	tr.Transition(0, false, false)
	tr.Observe(500e6)
	if tr.Utilization() != 0 || tr.Load() != 0 {
		t.Fatalf("idle tracker: util %g load %g", tr.Utilization(), tr.Load())
	}
}

func TestHalfDutyCycleConvergesToHalf(t *testing.T) {
	var tr Tracker
	now := int64(0)
	// 4 ms on, 4 ms off, for 400 ms.
	for i := 0; i < 50; i++ {
		tr.Transition(now, true, true)
		now += 4e6
		tr.Transition(now, false, false)
		now += 4e6
	}
	tr.Observe(now)
	u := tr.Utilization()
	if u < 0.40 || u > 0.60 {
		t.Fatalf("50%% duty cycle tracked as %g", u)
	}
}

func TestRunnableVsRunningDistinction(t *testing.T) {
	// A task that is always runnable but only running half the time
	// (sharing a core) has load ~1 but utilization ~0.5 — exactly the
	// distinction GTS's up-migration relies on.
	var tr Tracker
	now := int64(0)
	for i := 0; i < 50; i++ {
		tr.Transition(now, true, true)
		now += 3e6
		tr.Transition(now, true, false) // queued, not running
		now += 3e6
	}
	tr.Observe(now)
	if l := tr.Load(); l < 0.9 {
		t.Fatalf("always-runnable load %g", l)
	}
	u := tr.Utilization()
	if u < 0.35 || u > 0.65 {
		t.Fatalf("half-running utilization %g", u)
	}
}

func TestRecencyBias(t *testing.T) {
	// After a long busy history, ~100 ms of idleness must pull the
	// tracked value well down (32 periods halve it).
	var tr Tracker
	tr.Transition(0, true, true)
	tr.Transition(300e6, false, false)
	tr.Observe(400e6) // ~95 idle periods
	if u := tr.Utilization(); u > 0.2 {
		t.Fatalf("stale busy history not decayed: %g", u)
	}
}

func TestBoundsProperty(t *testing.T) {
	// Any transition sequence keeps both values in [0, 1] and keeps
	// Load >= Utilization (running implies runnable).
	f := func(steps []uint8) bool {
		var tr Tracker
		now := int64(0)
		for _, s := range steps {
			dur := int64(s%64+1) * 5e5
			runnable := s&1 == 1
			running := runnable && s&2 == 2
			tr.Transition(now, runnable, running)
			now += dur
		}
		tr.Observe(now)
		u, l := tr.Utilization(), tr.Load()
		return u >= 0 && u <= 1 && l >= 0 && l <= 1 && l >= u-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNonMonotonicNowTolerated(t *testing.T) {
	var tr Tracker
	tr.Transition(10e6, true, true)
	tr.Observe(5e6) // goes backwards: must not panic or corrupt
	if u := tr.Utilization(); u < 0 || u > 1 {
		t.Fatalf("utilization %g after clock skew", u)
	}
}

// TestPeriodStepsMatchFormula: every table entry holds the bits of
// decayN and of the geometric-sum expression the formula path
// evaluates.
func TestPeriodStepsMatchFormula(t *testing.T) {
	for n := range periodSteps {
		d := decayN(int64(n))
		c := y * (1 - d) / (1 - y)
		if s := periodSteps[n]; math.Float64bits(s.decay) != math.Float64bits(d) ||
			math.Float64bits(s.contrib) != math.Float64bits(c) {
			t.Fatalf("n=%d: table (%v, %v), formula (%v, %v)", n, s.decay, s.contrib, d, c)
		}
	}
}

// formulaAdvance is advance with every period crossing on the formula
// path: decayN and the geometric-sum expression, whatever the count.
func formulaAdvance(t *Tracker, now int64) {
	if now <= t.lastUpdate {
		t.lastUpdate = now
		return
	}
	total := t.phase + now - t.lastUpdate
	t.lastUpdate = now
	n := total / PeriodNs
	t.phase = total % PeriodNs
	if n > 0 {
		d := decayN(n)
		contrib := y * (1 - d) / (1 - y)
		t.runnableSum *= d
		t.runningSum *= d
		if t.runnable {
			t.runnableSum += contrib
		}
		if t.running {
			t.runningSum += contrib
		}
	}
}

// TestAdvanceMatchesFormulaPath replays seeded random transition
// sequences, with gaps from none to well past the table (and now
// sometimes stepping back), on a tracker and on the formula path, and
// requires the same state bit for bit after every step.
func TestAdvanceMatchesFormulaPath(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		r := rng.New(seed)
		var got, want Tracker
		now := int64(0)
		for i := 0; i < 2000; i++ {
			switch r.Intn(8) {
			case 0:
				now -= int64(r.Intn(PeriodNs))
			case 1:
				now += int64(r.Intn(200)) * PeriodNs
			default:
				now += int64(r.Intn(70 * PeriodNs))
			}
			runnable := r.Intn(2) == 0
			running := runnable && r.Intn(2) == 0
			if r.Intn(4) == 0 {
				got.Observe(now)
				formulaAdvance(&want, now)
			} else {
				got.Transition(now, runnable, running)
				formulaAdvance(&want, now)
				want.runnable, want.running = runnable, running
			}
			if got.lastUpdate != want.lastUpdate || got.phase != want.phase ||
				math.Float64bits(got.runnableSum) != math.Float64bits(want.runnableSum) ||
				math.Float64bits(got.runningSum) != math.Float64bits(want.runningSum) {
				t.Fatalf("seed %d step %d: tracker %+v, formula path %+v", seed, i, got, want)
			}
		}
	}
}

func BenchmarkTransition(b *testing.B) {
	var tr Tracker
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now += 2e6
		tr.Transition(now, i&1 == 0, i&1 == 0)
	}
}
