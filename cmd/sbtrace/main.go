// Command sbtrace inspects telemetry traces produced by sbsim
// -telemetry, sbsweep -telemetry, and sbfleet -telemetry (the
// canonical JSONL interchange format). Fleet traces (meta tier=fleet)
// additionally get a per-node rollup in summary.
//
// Usage:
//
//	sbtrace summary run.jsonl
//	sbtrace grep 'phase=migrate.*to=0' run.jsonl
//	sbtrace diff a.jsonl b.jsonl
//	sbtrace convert -format chrome run.jsonl > run.trace.json
//
// diff compares two traces epoch-first and reports the first divergent
// epoch — the bisection primitive for "these two runs should have been
// identical". Exit status: 0 when identical, 1 when the traces
// diverge, 2 on usage or I/O errors.
package main

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"

	"smartbalance/internal/param"
	"smartbalance/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, so tests can drive the full binary flow.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		usage(stderr)
		return 2
	}
	switch argv[0] {
	case "summary":
		return runSummary(argv[1:], stdout, stderr)
	case "grep":
		return runGrep(argv[1:], stdout, stderr)
	case "diff":
		return runDiff(argv[1:], stdout, stderr)
	case "convert":
		return runConvert(argv[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "sbtrace: unknown command %q\n", argv[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  sbtrace summary FILE             aggregate statistics of one trace
  sbtrace grep PATTERN FILE        print trace lines matching a regexp
  sbtrace diff A B                 first divergent epoch of two traces
  sbtrace convert -format F FILE   re-render as jsonl | chrome | prom
`)
}

// load reads one canonical JSONL trace.
func load(path string) (*telemetry.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadJSONL(f)
}

func runSummary(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "sbtrace: summary wants exactly one trace file")
		return 2
	}
	tr, err := load(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "sbtrace: %v\n", err)
		return 2
	}
	for _, k := range sortedKeys(tr.Meta) {
		fmt.Fprintf(stdout, "meta %-12s %s\n", k, tr.Meta[k])
	}
	spans := 0
	byPhase := map[string]int{}
	for _, e := range tr.Epochs {
		spans += len(e.Spans)
		for _, s := range e.Spans {
			byPhase[s.Phase]++
		}
	}
	fmt.Fprintf(stdout, "epochs    %d\n", len(tr.Epochs))
	fmt.Fprintf(stdout, "spans     %d\n", spans)
	for _, p := range sortedKeys(byPhase) {
		fmt.Fprintf(stdout, "  %-12s %d\n", p, byPhase[p])
	}
	fmt.Fprintf(stdout, "metrics   %d\n", len(tr.Metrics))
	fmt.Fprintf(stdout, "anomalies %d\n", len(tr.Anomalies))
	for _, a := range tr.Anomalies {
		fmt.Fprintf(stdout, "  %s\n", a.String())
	}
	if tr.Meta["tier"] == "fleet" {
		fleetSummary(stdout, tr)
	}
	return 0
}

// fleetNodeMetric matches the per-node rollup metrics a fleet run
// exports, e.g. `fleet_node_energy_j{node="3"}`.
var fleetNodeMetric = regexp.MustCompile(`^fleet_node_([a-z0-9_]+)\{node="(\d+)"\}$`)

// fleetSummary renders the fleet-tier rollup: fleet totals followed by
// one line per node, reconstructed from the fleet_* and fleet_node_*
// metrics a tier=fleet trace carries.
func fleetSummary(w io.Writer, tr *telemetry.Trace) {
	totals := map[string]float64{}
	perNode := map[int]map[string]float64{}
	for _, m := range tr.Metrics {
		if sub := fleetNodeMetric.FindStringSubmatch(m.Key); sub != nil {
			id, err := strconv.Atoi(sub[2])
			if err != nil {
				continue
			}
			if perNode[id] == nil {
				perNode[id] = map[string]float64{}
			}
			perNode[id][sub[1]] = m.Value
			continue
		}
		if len(m.Key) > 6 && m.Key[:6] == "fleet_" && m.Kind != telemetry.KindHistogram {
			totals[m.Key] = m.Value
		}
	}
	g := param.Float
	fmt.Fprintf(w, "fleet     nodes=%s policy=%s arrival=%s\n",
		tr.Meta["nodes"], tr.Meta["policy"], tr.Meta["arrival"])
	fmt.Fprintf(w, "  requests=%.0f completed=%.0f inflight=%.0f\n",
		totals["fleet_requests_total"], totals["fleet_completed_total"], totals["fleet_inflight"])
	fmt.Fprintf(w, "  energy_j=%s joules/request=%s\n",
		g(totals["fleet_energy_j"]), g(totals["fleet_joules_per_request"]))
	fmt.Fprintf(w, "  latency p50=%sms p95=%sms p99=%sms max=%sms\n",
		g(totals["fleet_p50_ms"]), g(totals["fleet_p95_ms"]), g(totals["fleet_p99_ms"]), g(totals["fleet_max_ms"]))
	ids := make([]int, 0, len(perNode))
	for id := range perNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		n := perNode[id]
		fmt.Fprintf(w, "  node %3d requests=%.0f completed=%.0f energy_j=%s j/req=%s p99_ms=%s\n",
			id, n["requests_total"], n["completed_total"],
			g(n["energy_j"]), g(n["joules_per_request"]), g(n["p99_ms"]))
	}
}

func runGrep(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "sbtrace: grep wants PATTERN FILE")
		return 2
	}
	re, err := regexp.Compile(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "sbtrace: bad pattern: %v\n", err)
		return 2
	}
	tr, err := load(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "sbtrace: %v\n", err)
		return 2
	}
	matched := 0
	emit := func(line string) {
		if re.MatchString(line) {
			fmt.Fprintln(stdout, line)
			matched++
		}
	}
	for _, e := range tr.Epochs {
		for _, s := range e.Spans {
			emit(s.String())
		}
	}
	for _, m := range tr.Metrics {
		emit(m.String())
	}
	for _, a := range tr.Anomalies {
		emit(a.String())
	}
	if matched == 0 {
		return 1
	}
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "sbtrace: diff wants two trace files")
		return 2
	}
	a, err := load(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "sbtrace: %v\n", err)
		return 2
	}
	b, err := load(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "sbtrace: %v\n", err)
		return 2
	}
	d := telemetry.FirstDivergence(a, b)
	if d == nil {
		fmt.Fprintln(stdout, "traces are identical")
		return 0
	}
	fmt.Fprintln(stdout, d.String())
	return 1
}

func runConvert(args []string, stdout, stderr io.Writer) int {
	format := "jsonl"
	if len(args) >= 2 && args[0] == "-format" {
		format = args[1]
		args = args[2:]
	}
	if len(args) != 1 {
		fmt.Fprintln(stderr, "sbtrace: convert wants [-format jsonl|chrome|prom] FILE")
		return 2
	}
	tr, err := load(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "sbtrace: %v\n", err)
		return 2
	}
	switch format {
	case "jsonl":
		err = telemetry.WriteJSONL(stdout, tr)
	case "chrome":
		err = telemetry.WriteChrome(stdout, tr)
	case "prom":
		err = telemetry.WriteProm(stdout, tr)
	default:
		fmt.Fprintf(stderr, "sbtrace: unknown format %q (jsonl | chrome | prom)\n", format)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "sbtrace: %v\n", err)
		return 2
	}
	return 0
}

// sortedKeys returns a string-keyed map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
