package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"smartbalance/internal/rng"
)

// variants is how many input variants every workload derives from its
// seed. One run simulates one variant, and runs cycle through them, so
// a measurement averages over variants rather than resting on one draw
// of the inputs: a single bursty arrival stream, or one jitter of a
// thread mix, moves the figures by more than a regression bound.
const variants = 16

// variantSeeds derives the input-variant seeds from the benchmark seed.
func variantSeeds(seed uint64) []uint64 {
	out := make([]uint64, variants)
	state := seed
	for i := range out {
		out[i] = rng.Splitmix64(&state)
	}
	return out
}

// measure runs one until budget has passed and every variant has run at
// least once. Runs cycle through the variants; with a tracer, each
// variant runs untraced and then traced, so the two kinds see the same
// inputs and host conditions. The results come back per variant.
func measure[R any](seeds []uint64, budget time.Duration, tr *tracer,
	one func(seed uint64, tr *tracer, run int) (R, error)) (plain, traced [][]R, err error) {
	plain = make([][]R, len(seeds))
	traced = make([][]R, len(seeds))
	deadline := time.Now().Add(budget)
	perVariant := 1
	if tr != nil {
		perVariant = 2
	}
	for run := 0; run < perVariant*len(seeds) || time.Now().Before(deadline); run++ {
		v := run / perVariant % len(seeds)
		var rt *tracer
		if run%perVariant == 1 {
			rt = tr
		}
		r, err := one(seeds[v], rt, run)
		if err != nil {
			return nil, nil, err
		}
		if rt != nil {
			traced[v] = append(traced[v], r)
		} else {
			plain[v] = append(plain[v], r)
		}
	}
	return plain, traced, nil
}

// variantMean is the mean over variants of the median of f over each
// variant's runs. For a simulated quantity every run of a variant agrees
// and the median is that value.
func variantMean[R any](runs [][]R, f func(R) float64) float64 {
	var total float64
	for _, vr := range runs {
		total += medianOf(vr, f)
	}
	return total / float64(len(runs))
}

// hostQuantile is the quantile of a variant's host times that the
// end-to-end metrics report. The host is shared, and its neighbours
// slow a minority of runs, in bursts of about a second, by up to a
// third; the lower quartile tracks the host's uncontended speed, so it
// drifts less between invocations than the median while still resting
// on several runs.
const hostQuantile = 0.25

// variantHostNs returns, per variant, the hostQuantile of hostNs over
// the variant's runs.
func variantHostNs[R any](runs [][]R, hostNs func(R) float64) []float64 {
	out := make([]float64, len(runs))
	for v, vr := range runs {
		out[v] = quantileOf(vr, hostQuantile, hostNs)
	}
	return out
}

// perHostSecond is the mean over variants of work/host, with work
// taken from each variant's first run (it is simulated, so every run
// agrees) and host the variant's host time in ns.
func perHostSecond[R any](runs [][]R, host []float64, work func(R) float64) float64 {
	var total float64
	for v, vr := range runs {
		total += work(vr[0]) / (host[v] / 1e9)
	}
	return total / float64(len(runs))
}

// flatten concatenates the per-variant runs.
func flatten[R any](runs [][]R) []R {
	var out []R
	for _, vr := range runs {
		out = append(out, vr...)
	}
	return out
}

// digestOf hashes a value's full printed form; %v prints floats in
// their shortest exact form, so equal digests mean identical outputs.
func digestOf(v any) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", v)
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigests verifies that every run of a variant produced the
// variant's first output, and returns one digest over all variants'
// outputs with the violations found.
func checkDigests[R any](runs [][]R, digest func(R) string) (string, []string) {
	var violations []string
	h := sha256.New()
	for v, vr := range runs {
		want := digest(vr[0])
		fmt.Fprintln(h, want)
		for i, r := range vr[1:] {
			if got := digest(r); got != want {
				violations = append(violations, fmt.Sprintf("variant %d run %d: output digest %s differs from the variant's first %s", v, i+1, got, want))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), violations
}
