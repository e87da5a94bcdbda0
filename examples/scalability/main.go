// Scalability: walks heterogeneous platforms from 2 to 128 cores (2
// threads per core), runs a short SmartBalance-managed simulation at
// each scale, and reports throughput, energy efficiency, and the
// controller's measured per-epoch overhead — the Fig. 7 scenario as an
// application.
package main

import (
	"fmt"
	"log"
	"time"

	"smartbalance"
)

func main() {
	const (
		seed = 4
		span = 600 * time.Millisecond
	)
	fmt.Printf("SmartBalance scalability walk (%v simulated per scale)\n\n", span)
	fmt.Printf("%6s %8s %14s %12s %14s %16s\n",
		"cores", "threads", "IPS", "power (W)", "IPS/W", "overhead/epoch")

	for n := 2; n <= 128; n *= 2 {
		plat, err := smartbalance.ScalingHMP(n)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := smartbalance.TrainPredictor(plat.Types, seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg := smartbalance.DefaultSmartBalanceConfig()
		cfg.Anneal.Seed = seed
		// Host time is injected here, at the application boundary — the
		// simulation packages themselves never read the wall clock
		// (sbvet's wallclock invariant), so the reported overhead/epoch
		// is a real measurement while everything else stays seeded.
		cfg.Clock = smartbalance.RealClock()
		ctrl, err := smartbalance.NewSmartBalanceController(pred, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := smartbalance.NewSystem(plat, ctrl)
		if err != nil {
			log.Fatal(err)
		}
		// 2 threads per core: one interactive and one busy stream per
		// pair, mixing PARSEC-like and IMB behaviour.
		half := n
		busy, err := smartbalance.Benchmark("fluidanimate", half, seed)
		if err != nil {
			log.Fatal(err)
		}
		inter, err := smartbalance.IMB(smartbalance.Medium, smartbalance.Medium, half, seed)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.SpawnAll(busy); err != nil {
			log.Fatal(err)
		}
		if err := sys.SpawnAll(inter); err != nil {
			log.Fatal(err)
		}
		if err := sys.Run(span); err != nil {
			log.Fatal(err)
		}
		st := sys.Stats()
		oh := ctrl.Overhead()
		fmt.Printf("%6d %8d %14.4g %12.3f %14.4g %16v\n",
			n, 2*n, st.IPS(), st.PowerW(), st.EnergyEfficiency(), oh.PerEpoch().Round(time.Microsecond))
	}
	fmt.Println("\npaper: overhead is <1% of the 60ms epoch up to 8 cores and is bounded at scale by capping SA iterations (Fig. 7/8)")
}
