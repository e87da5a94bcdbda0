// Custom: defines a bespoke workload with the builder API (a codec-like
// pipeline plus a background logger), runs it under SmartBalance with
// telemetry enabled, and prints where the controller placed each
// behaviour class and the kernel's scheduling counters.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"smartbalance"
)

func main() {
	const seed = 8

	// A codec-like pipeline: high-ILP transform, memory-bound reference
	// lookups, and a per-frame pacing wait.
	codec, err := smartbalance.NewWorkload("codec").
		Compute(35e6, 3.2).
		Memory(18e6, 768).
		Sleep(2*time.Millisecond).
		Workers(3, seed)
	if err != nil {
		log.Fatal(err)
	}
	// A background logger: branchy, bursty, mostly asleep.
	logger, err := smartbalance.NewWorkload("logger").
		Branchy(3e6, 0.7).
		Sleep(25*time.Millisecond).
		Workers(2, seed+1)
	if err != nil {
		log.Fatal(err)
	}

	plat := smartbalance.QuadHMP()
	ctrl, err := smartbalance.TrainSmartBalance(plat.Types, seed)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := smartbalance.NewSystem(plat, ctrl)
	if err != nil {
		log.Fatal(err)
	}
	tel := sys.EnableTelemetry()
	if err := sys.SpawnAll(codec); err != nil {
		log.Fatal(err)
	}
	if err := sys.SpawnAll(logger); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(1500 * time.Millisecond); err != nil {
		log.Fatal(err)
	}

	st := sys.Stats()
	fmt.Printf("custom workload on %s: %.4g IPS at %.3f W -> %.4g IPS/W\n\n",
		plat, st.IPS(), st.PowerW(), st.EnergyEfficiency())
	fmt.Println("per-task placement after 1.5s:")
	for _, ts := range st.Tasks {
		fmt.Printf("  %-12s run=%7.1fms instr=%9.3g migrations=%d\n",
			ts.Name, float64(ts.RunNs)/1e6, float64(ts.Instr), ts.Migrations)
	}
	fmt.Println()
	fmt.Println("kernel scheduling counters:")
	for _, m := range tel.Metrics() {
		if strings.HasPrefix(m.Key, "kernel_") {
			fmt.Printf("  %-40s %.0f\n", m.Key, m.Value)
		}
	}
}
