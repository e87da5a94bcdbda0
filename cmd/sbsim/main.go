// Command sbsim runs one simulation scenario — a platform, a workload,
// and a balancing policy — and prints the resulting run statistics.
//
// Usage:
//
//	sbsim -platform quad -workload Mix1 -threads 4 -balancer smartbalance
//	sbsim -platform biglittle -workload bodytrack -balancer gts -dur 2000
//	sbsim -platform scaling:16 -workload imb:HTHI -balancer vanilla
//	sbsim -workload Mix1 -balancer smartbalance -fault "drop=0.3;migfail=0.1"
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"smartbalance"
	"smartbalance/internal/fault"
	"smartbalance/internal/scenario"
	"smartbalance/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, so tests can drive the full binary flow.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		platName = fs.String("platform", "quad", "quad | biglittle | scaling:<n>")
		wl       = fs.String("workload", "Mix1", `benchmark name, MixN, imb:<T><I> (e.g. imb:HTMI), or synth:key=value,... (e.g. "synth:phases=1,ins=80,mem=0.3")`)
		threads  = fs.Int("threads", 4, "worker threads per benchmark")
		balName  = fs.String("balancer", "smartbalance", "smartbalance | vanilla | gts | iks | pinned")
		durMs    = fs.Int64("dur", 1500, "simulated duration in milliseconds")
		seed     = fs.Uint64("seed", 1, "workload/optimiser seed")
		perTask  = fs.Bool("tasks", false, "also print per-task statistics")
		traceN   = fs.Int("trace", 0, "print a scheduling-trace summary and the last N events (0 disables)")
		faultStr = fs.String("fault", "", `fault-injection plan, e.g. "drop=0.3;stale=0.1;migfail=0.2" (empty runs clean)`)
		telPath  = fs.String("telemetry", "", "write a telemetry trace (canonical JSONL) to this file; composes with -trace")
	)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "sbsim: "+format+"\n", args...)
		return 1
	}

	plat, err := scenario.Platform(*platName)
	if err != nil {
		return fail("%v", err)
	}
	specs, err := scenario.Workload(*wl, *threads, *seed)
	if err != nil {
		return fail("%v", err)
	}
	bal, err := scenario.Balancer(*balName, plat, *seed, *seed)
	if err != nil {
		return fail("%v", err)
	}
	cfg := smartbalance.DefaultKernelConfig()
	plan, err := smartbalance.ParseFaultPlan(*faultStr)
	if err != nil {
		return fail("%v", err)
	}
	var inj *smartbalance.FaultInjector
	if !plan.IsZero() {
		if inj, err = smartbalance.NewFaultInjector(plan, fault.SeedFor(*seed)); err != nil {
			return fail("%v", err)
		}
		cfg.Faults = inj
	}
	sys, err := smartbalance.NewSystemWithConfig(plat, bal, cfg)
	if err != nil {
		return fail("%v", err)
	}
	// -trace reads its counters from the same collector -telemetry
	// exports, so either flag attaches one.
	var tel *smartbalance.TelemetryCollector
	if *telPath != "" || *traceN > 0 {
		tel = sys.EnableTelemetry()
		tel.SetMeta("platform", *platName)
		tel.SetMeta("workload", *wl)
		tel.SetMeta("threads", strconv.Itoa(*threads))
		tel.SetMeta("seed", strconv.FormatUint(*seed, 10))
		tel.SetMeta("dur_ms", strconv.FormatInt(*durMs, 10))
		if *faultStr != "" {
			tel.SetMeta("fault", *faultStr)
		}
	}
	var tail *trace.Tail
	if *traceN > 0 {
		tail = trace.NewTail(*traceN)
		sys.Kernel().AddObserver(tail.Observe)
	}
	if err := sys.SpawnAll(specs); err != nil {
		return fail("%v", err)
	}
	if err := sys.Run(time.Duration(*durMs) * time.Millisecond); err != nil {
		return fail("%v", err)
	}
	if err := sys.Kernel().CheckInvariants(); err != nil {
		return fail("post-run invariant violation: %v", err)
	}
	st := sys.Stats()
	fmt.Fprintf(stdout, "platform : %s\n", plat)
	fmt.Fprintf(stdout, "workload : %s x %d threads (%d tasks)\n", *wl, *threads, len(specs))
	if inj != nil {
		fst := inj.Stats()
		fmt.Fprintf(stdout, "faults   : %s -> drops=%d stale=%d corrupt=%d powerdrop=%d powerspike=%d migfail=%d over %d epochs\n",
			plan, fst.Dropped, fst.Staled, fst.Corrupted, fst.PowerDrops, fst.PowerSpikes, fst.MigrateFails, fst.Epochs)
	}
	fmt.Fprint(stdout, st.String())
	fmt.Fprintf(stdout, "energy efficiency: %.4g IPS/W (%.4g instructions/joule)\n",
		st.EnergyEfficiency(), st.EnergyEfficiency())
	if groups := st.ByBenchmark(); len(groups) > 1 {
		fmt.Fprintln(stdout, "per-benchmark:")
		for _, g := range groups {
			fmt.Fprintf(stdout, "  %-16s tasks=%d run=%8.1fms instr=%9.3g ips=%.4g energy=%.4gJ\n",
				g.Benchmark, g.Tasks, float64(g.RunNs)/1e6, float64(g.Instr), g.IPS(st.SpanNs), g.EnergyJ)
		}
	}
	if *perTask {
		for _, ts := range st.Tasks {
			fmt.Fprintf(stdout, "  task %-24s state=%-8s run=%7.1fms instr=%.3g migrations=%d\n",
				ts.Name, ts.State, float64(ts.RunNs)/1e6, float64(ts.Instr), ts.Migrations)
		}
	}
	if tail != nil {
		trace.Write(stdout, tel.Metrics(), plat.NumCores(), tail)
	}
	if *telPath != "" {
		if inj != nil {
			fst := inj.Stats()
			tel.Counter("fault_dropped_total").Add(int64(fst.Dropped))
			tel.Counter("fault_staled_total").Add(int64(fst.Staled))
			tel.Counter("fault_corrupted_total").Add(int64(fst.Corrupted))
			tel.Counter("fault_power_drops_total").Add(int64(fst.PowerDrops))
			tel.Counter("fault_power_spikes_total").Add(int64(fst.PowerSpikes))
			tel.Counter("fault_migrate_fails_total").Add(int64(fst.MigrateFails))
		}
		f, err := os.Create(*telPath)
		if err != nil {
			return fail("telemetry: %v", err)
		}
		if err := smartbalance.WriteTelemetryJSONL(f, tel.Trace()); err != nil {
			return fail("telemetry: %v", err)
		}
		if err := f.Close(); err != nil {
			return fail("telemetry: %v", err)
		}
		tr := tel.Trace()
		fmt.Fprintf(stdout, "telemetry: %d epochs, %d metrics, %d anomalies -> %s\n",
			len(tr.Epochs), len(tr.Metrics), len(tr.Anomalies), *telPath)
	}
	return 0
}
