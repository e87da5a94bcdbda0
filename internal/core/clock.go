package core

import "time"

// Clock abstracts wall-clock access for overhead measurement, so that
// simulation packages never read host time directly (the wallclock
// sbvet invariant). Real time enters the system at exactly one
// annotated point — RealClock — which the cmd/ binaries and examples
// inject; simulated and tested runs use a FakeClock and stay
// bit-for-bit deterministic.
type Clock interface {
	// Now returns the clock's current reading. Durations are measured
	// as the difference of two readings.
	Now() time.Time
}

// realClock reads the host's monotonic clock.
type realClock struct{}

func (realClock) Now() time.Time {
	return time.Now() //sbvet:allow wallclock(single real-time entry point behind the Clock interface)
}

// RealClock returns the Clock backed by host time. Use it only where
// measuring actual controller overhead is the point: the cmd/ and
// examples/ boundary, and exp.Figure7.
func RealClock() Clock { return realClock{} }

// FakeClock is a deterministic Clock for simulations and tests: every
// Now call advances the reading by a fixed step, so any timing derived
// from it is a pure function of the call sequence. The zero value is a
// frozen clock (step 0). FakeClock is not safe for concurrent use;
// give each goroutine its own.
type FakeClock struct {
	now  time.Time
	step time.Duration
}

// NewFakeClock returns a FakeClock advancing by step per Now call.
func NewFakeClock(step time.Duration) *FakeClock {
	return &FakeClock{step: step}
}

// Now returns the current reading and advances the clock by the step.
func (c *FakeClock) Now() time.Time {
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

// sinceOn returns the elapsed duration on clk since t0 — the
// clock-parameterised replacement for time.Since.
func sinceOn(clk Clock, t0 time.Time) time.Duration {
	return clk.Now().Sub(t0)
}
