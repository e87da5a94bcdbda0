// Command smartbench regenerates the tables and figures of the
// SmartBalance paper's evaluation and prints them as text tables
// (optionally also CSV files).
//
// Usage:
//
//	smartbench                      # run every artefact at default size
//	smartbench -run F4b,F5          # run a subset
//	smartbench -quick               # trimmed workloads (seconds, not minutes)
//	smartbench -dur 2000 -threads 2,4,8
//	smartbench -csv out/            # also write one CSV per artefact
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"smartbalance"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, so tests can drive the full binary flow.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smartbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs  = fs.String("run", "all", "comma-separated artefact ids (T2,T3,T4,F4a,F4b,F5,F6,F7,F8) or 'all'")
		quick   = fs.Bool("quick", false, "trim workload sets for a fast smoke run")
		durMs   = fs.Int64("dur", 1200, "simulated duration per scenario in milliseconds")
		threads = fs.String("threads", "2,4,8", "comma-separated thread counts per benchmark")
		seed    = fs.Uint64("seed", 1, "experiment seed")
		csvDir  = fs.String("csv", "", "directory to write per-artefact CSV files (optional)")
		report  = fs.String("report", "", "write a Markdown paper-vs-measured digest to this file (optional)")
		list    = fs.Bool("list", false, "list the regenerable artefacts and exit")
		seeds   = fs.Int("seeds", 0, "replicate each artefact over N seeds and report mean/std instead of one run")
		workers = fs.Int("workers", 0, "sweep-engine worker pool size (<= 0 selects GOMAXPROCS)")
	)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "smartbench: "+format+"\n", args...)
		return 1
	}

	if *list {
		for _, id := range smartbalance.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	opts := smartbalance.DefaultExperimentOptions()
	opts.Quick = *quick
	opts.Seed = *seed
	opts.DurationNs = *durMs * 1e6
	opts.Workers = *workers
	tcs, err := parseInts(*threads)
	if err != nil {
		return fail("bad -threads: %v", err)
	}
	opts.ThreadCounts = tcs

	ids := smartbalance.ExperimentIDs()
	if *runIDs != "all" {
		ids = strings.Split(*runIDs, ",")
	}
	known := map[string]bool{}
	for _, id := range smartbalance.ExperimentIDs() {
		known[id] = true
	}
	for _, id := range ids {
		if !known[strings.TrimSpace(id)] {
			return fail("unknown artefact %q; known: %s", id, strings.Join(smartbalance.ExperimentIDs(), ","))
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail("csv dir: %v", err)
		}
	}

	var collected []*smartbalance.ExperimentResult
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		var res *smartbalance.ExperimentResult
		var err error
		if *seeds > 1 {
			seedList := make([]uint64, *seeds)
			for i := range seedList {
				seedList[i] = *seed + uint64(i)
			}
			res, err = smartbalance.ReplicateExperiment(id, opts, seedList)
		} else {
			res, err = smartbalance.RunExperiment(id, opts)
		}
		if err != nil {
			return fail("%s: %v", id, err)
		}
		collected = append(collected, res)
		fmt.Fprintf(stdout, "\n")
		if err := res.Table.Render(stdout); err != nil {
			return fail("%s: render: %v", id, err)
		}
		if res.Bars != nil {
			fmt.Fprintln(stdout)
			if err := res.Bars.Render(stdout, 40); err != nil {
				return fail("%s: bars: %v", id, err)
			}
		}
		fmt.Fprintf(stdout, "  paper claim: %s\n", res.PaperClaim)
		keys := make([]string, 0, len(res.Headline))
		for k := range res.Headline {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  headline %-28s %.4g\n", k+":", res.Headline[k])
		}
		fmt.Fprintf(stdout, "  (regenerated in %v)\n", time.Since(start).Round(time.Millisecond))

		if *csvDir != "" {
			path := filepath.Join(*csvDir, id+".csv")
			f, err := os.Create(path)
			if err != nil {
				return fail("%s: %v", id, err)
			}
			if err := res.Table.RenderCSV(f); err != nil {
				f.Close()
				return fail("%s: csv: %v", id, err)
			}
			if err := f.Close(); err != nil {
				return fail("%s: csv close: %v", id, err)
			}
			fmt.Fprintf(stdout, "  wrote %s\n", path)
		}
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return fail("report: %v", err)
		}
		if err := smartbalance.WriteReport(f, collected, opts); err != nil {
			f.Close()
			return fail("report: %v", err)
		}
		if err := f.Close(); err != nil {
			return fail("report close: %v", err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *report)
	}
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
