// Package pelt implements Linux's per-entity load tracking: a
// geometric-series average of an entity's runnable and running time
// over ~1 ms periods, decaying such that 32 periods halve a
// contribution (y^32 = 1/2). ARM's big.LITTLE MP patches (the GTS
// baseline) make their up/down-migration decisions on exactly this
// tracked load, so the reproduction tracks it the same way.
package pelt

import "math"

// PeriodNs is the PELT accounting period (Linux uses 1024 us).
const PeriodNs = 1 << 20

// y is the per-period decay factor, chosen so y^32 = 0.5.
var y = math.Pow(0.5, 1.0/32)

// maxSum is the series limit sum_{i>=0} y^i = 1/(1-y); a task that was
// always runnable converges to it.
var maxSum = 1 / (1 - y)

// yPow memoizes y^r for the 32 possible residues r = n mod 32, so the
// hot advance path never calls math.Pow. Entries are the exact float64
// values math.Pow(y, r) returns, keeping decayN bit-identical to the
// direct computation.
var yPow = func() (t [32]float64) {
	for i := range t {
		t[i] = math.Pow(y, float64(i))
	}
	return t
}()

// decayN returns y^n.
func decayN(n int64) float64 {
	if n <= 0 {
		return 1
	}
	// Halve per full 32 periods, then the residue.
	halvings := n / 32
	if halvings > 60 {
		return 0
	}
	v := math.Ldexp(1, -int(halvings))
	return v * yPow[n%32]
}

// periodStep returns what n newly completed periods do to the sums:
// they decay by y^n, and a state held throughout adds the geometric
// sum of the periods, sum_{i=1..n} y^i = y*(1-y^n)/(1-y).
func periodStep(n int64) (decay, contrib float64) {
	d := decayN(n)
	return d, y * (1 - d) / (1 - y)
}

// periodSteps memoizes periodStep for n < 64, so the common short gaps
// skip Ldexp and the division. Entries are periodStep's own results, so
// both paths give the same bits.
var periodSteps = func() (t [64]struct{ decay, contrib float64 }) {
	for n := range t {
		t[n].decay, t[n].contrib = periodStep(int64(n))
	}
	return t
}()

// Tracker follows one task's runnable/running history. The zero value
// is a tracker that has never been runnable; call Transition at every
// state change and read Utilization/Load at any time at or after the
// last transition.
type Tracker struct {
	lastUpdate int64 // ns timestamp of the last accounting
	// fractional period carry-over [0, PeriodNs).
	phase int64

	runnableSum float64 // decayed sum of runnable periods
	runningSum  float64 // decayed sum of running periods

	runnable bool
	running  bool
}

// Transition accounts the elapsed interval under the current state and
// switches to the new state. now must be monotonically non-decreasing.
func (t *Tracker) Transition(now int64, runnable, running bool) {
	t.advance(now)
	t.runnable = runnable
	t.running = running
}

// advance folds the interval [lastUpdate, now) into the sums using the
// current state.
func (t *Tracker) advance(now int64) {
	if now <= t.lastUpdate {
		t.lastUpdate = now
		return
	}
	elapsed := now - t.lastUpdate
	t.lastUpdate = now

	total := t.phase + elapsed
	fullPeriods := total / PeriodNs
	t.phase = total % PeriodNs

	if fullPeriods > 0 {
		var d, contrib float64
		if fullPeriods < int64(len(periodSteps)) {
			d, contrib = periodSteps[fullPeriods].decay, periodSteps[fullPeriods].contrib
		} else {
			d, contrib = periodStep(fullPeriods)
		}
		t.runnableSum *= d
		t.runningSum *= d
		if t.runnable {
			t.runnableSum += contrib
		}
		if t.running {
			t.runningSum += contrib
		}
	}
	// The partial current period contributes proportionally; fold it in
	// lazily at read time via phaseContrib (keeping sums period-aligned
	// avoids double counting).
}

// phaseContrib returns the in-progress partial period's weight.
func (t *Tracker) phaseContrib() float64 {
	return float64(t.phase) / PeriodNs
}

// Load returns the tracked *runnable* fraction in [0, 1] as of the last
// Transition/Observe — the load_avg_ratio GTS thresholds act on.
func (t *Tracker) Load() float64 {
	s := t.runnableSum
	if t.runnable {
		s += t.phaseContrib()
	}
	v := s / maxSum
	if v > 1 {
		v = 1
	}
	return v
}

// Utilization returns the tracked *running* fraction in [0, 1].
func (t *Tracker) Utilization() float64 {
	s := t.runningSum
	if t.running {
		s += t.phaseContrib()
	}
	v := s / maxSum
	if v > 1 {
		v = 1
	}
	return v
}

// Observe advances accounting to now without changing state (for
// reading fresh values at an epoch boundary).
func (t *Tracker) Observe(now int64) {
	t.advance(now)
}
