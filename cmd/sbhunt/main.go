// Command sbhunt runs the adversarial scenario search: a seeded
// evolutionary hunt over scenario genomes scored on falsification
// objectives (SmartBalance losing to a baseline, SLO violations,
// anomaly triggers firing, worker-count divergence), followed by a
// delta-debugging minimizer that shrinks each counterexample before
// pinning it to a corpus directory.
//
// Usage:
//
//	sbhunt -seed 7 -out testdata/corpus
//	sbhunt -seed 7 -gens 6 -pop 16 -workers 8 -cache .sbcache
//	sbhunt -replay testdata/corpus
//
// The hunt log on stdout is a pure function of the flags minus
// -workers and -cache: a fixed seed produces byte-identical stdout
// and corpus files for any worker count, cached or cold.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"smartbalance/internal/hunt"
	"smartbalance/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, so tests can drive the full binary flow.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbhunt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Uint64("seed", 1, "hunt seed; reproduces the whole search")
		gens    = fs.Int("gens", 0, "generations (0 = default)")
		pop     = fs.Int("pop", 0, "population per generation (0 = default)")
		workers = fs.Int("workers", 1, "evaluation worker pool (never changes any output, only wall-clock)")
		cache   = fs.String("cache", "", "content-addressed result cache directory (shared with sbsweep)")
		sloP99  = fs.Float64("slo-p99", hunt.DefaultSLO().P99Ms, "fleet p99 latency SLO in milliseconds")
		sloJPR  = fs.Float64("slo-jpr", hunt.DefaultSLO().JPR, "fleet energy SLO in joules per request")
		margin  = fs.Float64("margin", 0, "relative loss tolerance on comparative objectives (0 = default)")
		tier    = fs.String("tier", "", "restrict the search: node | fleet (default both)")
		out     = fs.String("out", "", "write minimized counterexamples to this corpus directory")
		replay  = fs.String("replay", "", "replay a corpus directory instead of hunting; exits non-zero if any entry stopped violating")
	)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 1
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sbhunt: unexpected argument %q\n", fs.Arg(0))
		return 1
	}

	var c *sweep.Cache
	if *cache != "" {
		var err error
		c, err = sweep.OpenCache(*cache)
		if err != nil {
			fmt.Fprintf(stderr, "sbhunt: %v\n", err)
			return 1
		}
	}

	if *replay != "" {
		return runReplay(*replay, c, *workers, stdout, stderr)
	}

	cfg := hunt.Config{
		Seed:        *seed,
		Generations: *gens,
		Population:  *pop,
		Workers:     *workers,
		Cache:       c,
		SLO:         hunt.SLO{P99Ms: *sloP99, JPR: *sloJPR},
		Margin:      *margin,
		Log:         stdout,
	}
	if *tier != "" {
		cfg.Tiers = strings.Split(*tier, ",")
	}
	res, err := hunt.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "sbhunt: %v\n", err)
		return 1
	}
	if *out != "" {
		names, err := hunt.WriteCorpus(*out, res.Counterexamples)
		if err != nil {
			fmt.Fprintf(stderr, "sbhunt: %v\n", err)
			return 1
		}
		for _, name := range names {
			fmt.Fprintf(stdout, "corpus %s\n", name)
		}
	}
	return 0
}

// runReplay re-evaluates every pinned counterexample in dir.
func runReplay(dir string, c *sweep.Cache, workers int, stdout, stderr io.Writer) int {
	entries, err := hunt.LoadCorpus(dir)
	if err != nil {
		fmt.Fprintf(stderr, "sbhunt: %v\n", err)
		return 1
	}
	if len(entries) == 0 {
		fmt.Fprintf(stderr, "sbhunt: corpus %s is empty\n", dir)
		return 1
	}
	results := hunt.Replay(&hunt.Evaluator{Cache: c, Workers: workers}, entries)
	failed := 0
	for _, r := range results {
		switch {
		case r.Err != nil:
			fmt.Fprintf(stdout, "replay %s ERROR %v\n", r.Entry.Name(), r.Err)
			failed++
		case !r.OK:
			fmt.Fprintf(stdout, "replay %s GONE %s\n", r.Entry.Name(), r.Violation.Detail)
			failed++
		default:
			fmt.Fprintf(stdout, "replay %s ok (%s)\n", r.Entry.Name(), r.Violation.Detail)
		}
	}
	fmt.Fprintf(stdout, "replay done entries=%d failed=%d\n", len(results), failed)
	if failed > 0 {
		return 1
	}
	return 0
}
