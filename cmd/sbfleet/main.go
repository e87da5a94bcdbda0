// Command sbfleet runs the fleet tier: N simulated MPSoC nodes behind
// an energy-aware L4-style dispatcher serving an open-loop request
// stream, and reports fleet-level joules per request and latency
// percentiles.
//
// Usage:
//
//	sbfleet -nodes 8 -policy energy -arrival bursty -seed 7
//	sbfleet -nodes 8 -arrival "bursty:rate=300,burst=6,pburst=0.08,pcalm=0.25" -compare
//	sbfleet -nodes 32 -policy least -arrival diurnal -workers 8 -telemetry fleet.jsonl
//
// The canonical report — the per-run summary and `headline` lines — is
// a pure function of the flags minus -workers: a fixed seed produces
// byte-identical stdout and telemetry JSONL for any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"smartbalance"
	"smartbalance/internal/param"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, so tests can drive the full binary flow.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := smartbalance.DefaultFleetConfig()
	var (
		nodes    = fs.Int("nodes", def.Nodes, "fleet size")
		profile  = fs.String("profile", def.Profile, "comma-separated node platforms, cycled (quad | biglittle | scaling:<n>)")
		balancer = fs.String("balancer", def.Balancer, "intra-node balancer: smartbalance | vanilla | gts | iks | pinned")
		policy   = fs.String("policy", def.Policy, "dispatch policy: rr | least | energy")
		arrival  = fs.String("arrival", def.Arrival, `arrival spec: uniform | diurnal | bursty, with optional params ("bursty:rate=300,burst=6")`)
		classes  = fs.String("classes", def.Classes, "comma-separated request-class mix")
		seed     = fs.Uint64("seed", def.Seed, "fleet seed; reproduces the whole run")
		durMs    = fs.Int64("dur", def.DurationNs/1e6, "admission window in simulated milliseconds")
		tickMs   = fs.Int64("tick", def.TickNs/1e6, "dispatch tick in simulated milliseconds; it quantises dispatch only, the arrival stream is the same at every tick")
		drainMs  = fs.Int64("drain", 0, "post-admission drain bound in milliseconds (0 = same as -dur)")
		workers  = fs.Int("workers", 1, "node-stepping goroutines, the caller included; its helpers are capped at GOMAXPROCS-1, and every tick is shared, each worker starting at its own block of nodes (never changes any output, only wall-clock)")
		perNode  = fs.Bool("pernode", false, "also print per-node statistics")
		compare  = fs.Bool("compare", false, "run every dispatch policy on the identical stream and compare")
		telPath  = fs.String("telemetry", "", "write the fleet telemetry trace (canonical JSONL) to this file")
	)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 1
	}
	cfg := smartbalance.FleetConfig{
		Nodes:      *nodes,
		Profile:    *profile,
		Balancer:   *balancer,
		Policy:     *policy,
		Arrival:    *arrival,
		Classes:    *classes,
		Seed:       *seed,
		DurationNs: *durMs * 1e6,
		TickNs:     *tickMs * 1e6,
		DrainNs:    *drainMs * 1e6,
		Workers:    *workers,
		Telemetry:  *telPath != "",
	}
	if *compare {
		if *telPath != "" {
			fmt.Fprintln(stderr, "sbfleet: -telemetry composes with single-policy runs only, not -compare")
			return 1
		}
		return runCompare(cfg, *perNode, stdout, stderr)
	}
	res, tel, err := runOne(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "sbfleet: %v\n", err)
		return 1
	}
	printResult(stdout, res, *perNode)
	fmt.Fprintln(stdout, headline(res))
	if *telPath != "" {
		if err := writeTelemetry(*telPath, tel); err != nil {
			fmt.Fprintf(stderr, "sbfleet: telemetry: %v\n", err)
			return 1
		}
		tr := tel.Trace()
		fmt.Fprintf(stderr, "sbfleet: telemetry: %d epochs, %d metrics -> %s\n",
			len(tr.Epochs), len(tr.Metrics), *telPath)
	}
	return 0
}

// runOne executes a single fleet run.
func runOne(cfg smartbalance.FleetConfig) (*smartbalance.FleetResult, *smartbalance.TelemetryCollector, error) {
	f, err := smartbalance.NewFleet(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := f.Run()
	if err != nil {
		return nil, nil, err
	}
	return res, f.Telemetry(), nil
}

// runCompare runs every dispatch policy over the identical arrival
// stream and prints the results side by side, energy-aware last.
func runCompare(cfg smartbalance.FleetConfig, perNode bool, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "policy comparison: nodes=%d profile=%s arrival=%s seed=%d dur=%dms\n\n",
		cfg.Nodes, cfg.Profile, cfg.Arrival, cfg.Seed, cfg.DurationNs/1e6)
	var base *smartbalance.FleetResult
	for _, pol := range []string{"rr", "least", "energy"} {
		c := cfg
		c.Policy = pol
		res, _, err := runOne(c)
		if err != nil {
			fmt.Fprintf(stderr, "sbfleet: %s: %v\n", pol, err)
			return 1
		}
		if pol == "rr" {
			base = res
		}
		rel := ""
		if base.JoulesPerRequest > 0 && pol != "rr" {
			rel = fmt.Sprintf("  (%+.1f%% vs rr)", 100*(res.JoulesPerRequest-base.JoulesPerRequest)/base.JoulesPerRequest)
		}
		fmt.Fprintf(stdout, "%-7s joules/request=%-10.5g p50=%7.2fms p99=%7.2fms max=%7.2fms completed=%d/%d%s\n",
			pol, res.JoulesPerRequest, res.P50Ms, res.P99Ms, res.MaxMs, res.Completed, res.Requests, rel)
		if perNode {
			printPerNode(stdout, res)
		}
		fmt.Fprintln(stdout, headline(res))
	}
	return 0
}

// printResult renders the standard single-run report.
func printResult(w io.Writer, res *smartbalance.FleetResult, perNode bool) {
	fmt.Fprintf(w, "fleet    : %d nodes, policy=%s\n", res.Nodes, res.Policy)
	fmt.Fprintf(w, "arrival  : %s\n", res.Arrival)
	fmt.Fprintf(w, "requests : admitted=%d completed=%d inflight=%d over %dms (+%dms drain)\n",
		res.Requests, res.Completed, res.InFlight, res.DurationNs/1e6, (res.ElapsedNs-res.DurationNs)/1e6)
	fmt.Fprintf(w, "energy   : %.5gJ total, %.5g joules/request\n", res.EnergyJ, res.JoulesPerRequest)
	fmt.Fprintf(w, "latency  : p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		res.P50Ms, res.P95Ms, res.P99Ms, res.MaxMs)
	if perNode {
		printPerNode(w, res)
	}
}

// printPerNode renders the per-node breakdown.
func printPerNode(w io.Writer, res *smartbalance.FleetResult) {
	for i := range res.PerNode {
		n := &res.PerNode[i]
		fmt.Fprintf(w, "  node %2d %-10s requests=%-4d completed=%-4d energy=%8.4gJ j/req=%-9.4g p99~%.2fms\n",
			n.ID, n.Platform, n.Requests, n.Completed, n.EnergyJ, n.JoulesPerRequest, n.P99Ms)
	}
}

// headline renders the machine-readable result line, one key=value
// field per metric; floats use the shortest exact rendering so the
// line is byte-stable.
func headline(res *smartbalance.FleetResult) string {
	g := param.Float
	return fmt.Sprintf("headline policy=%s nodes=%d requests=%d completed=%d inflight=%d jpr=%s p50_ms=%s p99_ms=%s max_ms=%s energy_j=%s",
		res.Policy, res.Nodes, res.Requests, res.Completed, res.InFlight,
		g(res.JoulesPerRequest), g(res.P50Ms), g(res.P99Ms), g(res.MaxMs), g(res.EnergyJ))
}

// writeTelemetry exports the fleet telemetry as canonical JSONL.
func writeTelemetry(path string, tel *smartbalance.TelemetryCollector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = smartbalance.WriteTelemetryJSONL(f, tel.Trace())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
