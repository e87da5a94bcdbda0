package kernel

import (
	"fmt"
	"math"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/machine"
	"smartbalance/internal/rng"
	"smartbalance/internal/workload"
)

// scanPlacement is fork placement as a linear scan over the cores: the
// first core with the fewest runnable tasks. The placement index must
// pick the same core.
func scanPlacement(k *Kernel) arch.CoreID {
	best, bestLen := arch.CoreID(0), math.MaxInt
	for i := 0; i < k.NumCores(); i++ {
		if l := k.RunqueueLen(arch.CoreID(i)); l < bestLen {
			best, bestLen = arch.CoreID(i), l
		}
	}
	return best
}

// placementSpec draws a thread that runs forever, sleeps between
// phases, or exits after a few passes.
func placementSpec(r *rng.Rand) *workload.ThreadSpec {
	spec := &workload.ThreadSpec{
		Name:      "place",
		Benchmark: "place",
		Phases: []workload.Phase{{
			Name:          "p",
			Instructions:  uint64(1e5 + r.Intn(2e7)),
			ILP:           0.8 + r.Float64()*3,
			MemShare:      r.Float64() * 0.5,
			BranchShare:   r.Float64() * 0.2,
			WorkingSetIKB: 1 + r.Float64()*64,
			WorkingSetDKB: 1 + r.Float64()*1024,
			BranchEntropy: r.Float64(),
			MLP:           1 + r.Float64()*3,
		}},
	}
	if r.Float64() < 0.4 {
		spec.Phases[0].SleepAfterNs = int64(1 + r.Intn(10e6))
	}
	if r.Float64() < 0.4 {
		spec.Repeats = 1 + r.Intn(3)
	}
	return spec
}

// TestSpawnPlacementMatchesScan drives seeded sequences of spawn
// bursts, Run steps (with a balancer migrating at every epoch), direct
// migrations between spawns, sleeps and exits, and checks every
// Spawn's core against scanPlacement and the kernel's invariants —
// including the placement index's leaves — after every operation.
func TestSpawnPlacementMatchesScan(t *testing.T) {
	for _, cores := range []int{1, 3, 4, 256, 1024} {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("c%d/seed%d", cores, seed), func(t *testing.T) {
				placementStream(t, cores, seed)
			})
		}
	}
}

func placementStream(t *testing.T, cores int, seed uint64) {
	plat, err := arch.ScalingHMP(cores)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(plat)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	// The shortest epoch Validate allows, so the chaos balancer also
	// migrates inside the stream's short Run steps.
	cfg.EpochNs = cfg.SchedLatencyNs
	k, err := New(m, &chaosBalancer{r: rng.New(seed ^ 0x9A)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	maxTasks := 3*cores + 16
	check := func(step int, op string) {
		t.Helper()
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("step %d after %s: %v", step, op, err)
		}
	}
	spawns := 0
	for step := 0; step < 60; step++ {
		switch op := r.Intn(3); {
		case op == 0 && len(k.Tasks()) < maxTasks:
			for n := 1 + r.Intn(cores+2); n > 0; n-- {
				want := scanPlacement(k)
				id, err := k.Spawn(placementSpec(r))
				if err != nil {
					t.Fatal(err)
				}
				if got := k.Task(id).Core(); got != want {
					t.Fatalf("step %d: spawn %d placed on core %d, the scan picks %d", step, spawns, got, want)
				}
				spawns++
			}
			check(step, "spawn")
		case op == 1:
			active := k.ActiveTasks()
			for n := r.Intn(len(active) + 1); n > 0; n-- {
				task := active[r.Intn(len(active))]
				if err := k.Migrate(task.ID, arch.CoreID(r.Intn(cores))); err != nil {
					t.Fatal(err)
				}
			}
			check(step, "migrate")
		default:
			if err := k.Run(k.Now() + Time(1+r.Intn(20e6))); err != nil {
				t.Fatal(err)
			}
			check(step, "run")
		}
	}
	if spawns == 0 {
		t.Fatal("the stream spawned nothing")
	}
}
