// Command sbvet runs the repository's determinism, scheduler-safety,
// and hot-path purity analyzers (internal/analysis) over package
// patterns.
//
// Usage:
//
//	sbvet ./...                 # whole repository (the CI gate)
//	sbvet -json ./internal/...  # machine-readable diagnostics
//	sbvet -floateq=false ./...  # disable one analyzer
//	sbvet -allows ./...         # inventory every //sbvet:allow annotation
//
// Exit status: 0 when clean, 1 when violations were found (or, under
// -allows, when malformed/stale annotations exist), 2 on usage or load
// errors. Suppress a single finding at its call site with an annotated
// reason, e.g.
//
//	t := time.Now() //sbvet:allow wallclock(host benchmark boundary)
//
// Mark a function as an epoch hot-path root with //sbvet:hotpath in its
// doc comment; the hotpath analyzer then checks its whole transitive
// call graph inside the module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"smartbalance/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit results as JSON")
	allows := fs.Bool("allows", false, "inventory //sbvet:allow annotations instead of analyzing")
	all := analysis.All()
	enabled := make(map[string]*bool, len(all))
	for _, a := range all {
		enabled[a.Name] = fs.Bool(a.Name, true, a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "sbvet:", err)
		return 2
	}
	if *allows {
		return runAllows(cwd, patterns, *jsonOut, stdout, stderr)
	}
	var active []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	diags, err := analysis.Run(cwd, patterns, active)
	if err != nil {
		fmt.Fprintln(stderr, "sbvet:", err)
		return 2
	}
	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := encodeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "sbvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "sbvet: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// runAllows implements `sbvet -allows`: the suppression audit surface.
// Well-formed annotations are listed (text or JSON); malformed ones —
// including annotations naming analyzers that no longer exist — fail
// the run so stale suppressions cannot linger silently.
func runAllows(cwd string, patterns []string, jsonOut bool, stdout, stderr io.Writer) int {
	recs, bad, err := analysis.CollectAllows(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "sbvet:", err)
		return 2
	}
	if jsonOut {
		if recs == nil {
			recs = []analysis.AllowRecord{}
		}
		if err := encodeJSON(stdout, recs); err != nil {
			fmt.Fprintln(stderr, "sbvet:", err)
			return 2
		}
	} else {
		for _, r := range recs {
			fmt.Fprintf(stdout, "%s:%d: %s(%s)\n", r.File, r.Line, r.Analyzer, r.Reason)
		}
		fmt.Fprintf(stdout, "%d allow annotation(s)\n", len(recs))
	}
	if len(bad) > 0 {
		for _, d := range bad {
			fmt.Fprintln(stderr, d.String())
		}
		fmt.Fprintf(stderr, "sbvet: %d malformed or stale annotation(s)\n", len(bad))
		return 1
	}
	return 0
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
