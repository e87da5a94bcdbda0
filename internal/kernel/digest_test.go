package kernel_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/balancer"
	"smartbalance/internal/contention"
	"smartbalance/internal/core"
	"smartbalance/internal/fault"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

// updateDigests rewrites testdata/run_digests.json from the current
// kernel instead of comparing against it:
//
//	go test ./internal/kernel -run TestRunDigests -update
//
// Regenerate only for an intended change of simulated behaviour; a
// speed or refactoring change must reproduce every committed digest.
var updateDigests = flag.Bool("update", false, "rewrite testdata/run_digests.json")

const runDigestsPath = "testdata/run_digests.json"

// digestCase is one fixed-seed whole run.
type digestCase struct {
	name  string
	build func(t *testing.T) *kernel.Kernel
	simNs kernel.Time
	// stepNs, when positive, advances the run in Run horizons of this
	// length (how the fleet tier steps its nodes); 0 is one Run call.
	stepNs kernel.Time
	// wantTies requires the run to pop a wakeup and a slice end at the
	// same simulated time, so the (at, seq) tie-break is exercised.
	wantTies bool
}

// runDigest is what the golden file pins for one case.
type runDigest struct {
	Digest string `json:"digest"`
	Events int    `json:"events"`
}

// newMachine builds a machine over plat, failing t on error.
func newMachine(t *testing.T, plat *arch.Platform, opts machine.Options) *machine.Machine {
	t.Helper()
	m, err := machine.NewWithOptions(plat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// digestKernel builds a kernel over m with the given balancer and
// config and spawns specs.
func digestKernel(t *testing.T, m *machine.Machine, bal kernel.Balancer, cfg kernel.Config, specs []workload.ThreadSpec) *kernel.Kernel {
	t.Helper()
	k, err := kernel.New(m, bal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if _, err := k.Spawn(&specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// smartController trains a predictor for plat and returns a
// SmartBalance controller seeded with seed.
func smartController(t *testing.T, plat *arch.Platform, seed uint64) *core.SmartBalance {
	t.Helper()
	tc := core.DefaultTrainConfig()
	tc.Seed = seed
	pred, err := core.Train(plat.Types, tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Anneal.Seed = seed
	ctrl, err := core.New(pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// specsOf returns a pass-through for a workload generator's results
// that fails t on a generation error.
func specsOf(t *testing.T) func([]workload.ThreadSpec, error) []workload.ThreadSpec {
	return func(specs []workload.ThreadSpec, err error) []workload.ThreadSpec {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}
}

// sleepySpecs mixes synth threads that sleep after every cycle with
// compute-bound ones. Each sleep is snapped to a whole 500 µs: CFS
// slices are 12 ms / n or the 1.5 ms floor, so a sleep of 1.5, 3 or
// 4 ms ends on the same nanosecond as the slice dispatched when the
// sleeper left its core.
func sleepySpecs(t *testing.T, seed uint64) []workload.ThreadSpec {
	t.Helper()
	var specs []workload.ThreadSpec
	for _, s := range []string{
		"synth:phases=1,ins=3,sleep=3",
		"synth:phases=2,ins=1,sleep=1.5",
		"synth:phases=1,ins=6,ilp=2,mem=0.3,sleep=4",
		"synth:phases=1,ins=40",
	} {
		specs = append(specs, specsOf(t)(workload.Synth(s, 4, seed))...)
	}
	for i := range specs {
		for j := range specs[i].Phases {
			if p := &specs[i].Phases[j]; p.SleepAfterNs > 0 {
				p.SleepAfterNs = (p.SleepAfterNs + 250e3) / 500e3 * 500e3
			}
		}
	}
	return specs
}

func digestCases() []digestCase {
	sleepy := func(t *testing.T) *kernel.Kernel {
		cfg := kernel.DefaultConfig()
		cfg.Seed = 5
		return digestKernel(t, newMachine(t, arch.QuadHMP(), machine.Options{}), balancer.Vanilla{}, cfg, sleepySpecs(t, 5))
	}
	return []digestCase{
		{
			name: "quad-mix1x4-smartbalance",
			build: func(t *testing.T) *kernel.Kernel {
				plat := arch.QuadHMP()
				cfg := kernel.DefaultConfig()
				cfg.Seed = 1
				return digestKernel(t, newMachine(t, plat, machine.Options{}), smartController(t, plat, 1), cfg,
					specsOf(t)(workload.Mix("Mix1", 4, 1)))
			},
			simNs: 8e9,
		},
		{
			name: "hexa-contended-smartbalance",
			build: func(t *testing.T) *kernel.Kernel {
				plat := arch.HexaDualCluster()
				ctrl := smartController(t, plat, 2)
				var specs []workload.ThreadSpec
				for _, g := range []struct {
					spec string
					n    int
				}{
					{"synth:phases=1,ins=80,ilp=3,mem=0.3,wsd=384", 4},
					{"synth:phases=1,ins=120,ilp=2,mem=0.4,wsd=2048,ant=1", 2},
					{"synth:phases=1,ins=120,ilp=2,mem=0.4,wsd=2048,ant=2", 2},
				} {
					specs = append(specs, specsOf(t)(workload.Synth(g.spec, g.n, 2))...)
				}
				m := newMachine(t, plat, machine.Options{Contention: contention.Spec{Enabled: true}})
				ctrl.SetContention(m.Contention())
				cfg := kernel.DefaultConfig()
				cfg.Seed = 2
				return digestKernel(t, m, ctrl, cfg, specs)
			},
			simNs: 8e9,
		},
		{
			name: "scaling256-mix1-vanilla",
			build: func(t *testing.T) *kernel.Kernel {
				plat, err := arch.ScalingHMP(256)
				if err != nil {
					t.Fatal(err)
				}
				cfg := kernel.DefaultConfig()
				cfg.Seed = 3
				return digestKernel(t, newMachine(t, plat, machine.Options{}), balancer.Vanilla{}, cfg,
					specsOf(t)(workload.Mix("Mix1", 1280, 3)))
			},
			simNs: 0.6e9,
		},
		{name: "quad-synth-sleepy-vanilla", build: sleepy, simNs: 3e9, wantTies: true},
		{name: "quad-synth-sleepy-vanilla-5ms-steps", build: sleepy, simNs: 3e9, stepNs: 5e6, wantTies: true},
		{
			name: "quad-mix1x4-smartbalance-migfail",
			build: func(t *testing.T) *kernel.Kernel {
				plat := arch.QuadHMP()
				plan, err := fault.ParsePlan("drop=0.2;migfail=0.4")
				if err != nil {
					t.Fatal(err)
				}
				inj, err := fault.New(plan, 6)
				if err != nil {
					t.Fatal(err)
				}
				cfg := kernel.DefaultConfig()
				cfg.Seed = 6
				cfg.Faults = inj
				return digestKernel(t, newMachine(t, plat, machine.Options{}), smartController(t, plat, 6), cfg,
					specsOf(t)(workload.Mix("Mix1", 4, 6)))
			},
			simNs: 8e9,
		},
	}
}

// runDigester hashes every trace event a kernel emits, in emission
// order, and then the final RunStats.
type runDigester struct {
	buf    []byte
	events int
	// lastSlice/lastWake are the times of the latest slice-end and
	// wakeup events; ties counts instants at which both occurred.
	lastSlice, lastWake kernel.Time
	ties                int
}

func (d *runDigester) u64(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
func (d *runDigester) i64(v int64)  { d.u64(uint64(v)) }
func (d *runDigester) f64(v float64) {
	d.u64(math.Float64bits(v))
}
func (d *runDigester) str(s string) {
	d.u64(uint64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *runDigester) observe(e kernel.TraceEvent) {
	d.events++
	d.i64(e.At)
	d.i64(int64(e.Kind))
	d.i64(int64(e.Core))
	d.i64(int64(e.Thread))
	d.i64(e.DurNs)
	d.u64(e.Instr)
	switch e.Kind {
	case kernel.TraceSlice:
		if e.At == d.lastWake && e.At != d.lastSlice {
			d.ties++
		}
		d.lastSlice = e.At
	case kernel.TraceWake:
		if e.At == d.lastSlice && e.At != d.lastWake {
			d.ties++
		}
		d.lastWake = e.At
	}
}

func (d *runDigester) stats(s *kernel.RunStats) {
	d.str(s.Balancer)
	d.i64(s.SpanNs)
	d.i64(int64(s.Epochs))
	d.i64(int64(s.Migrations))
	for i := range s.Cores {
		c := &s.Cores[i]
		d.i64(int64(c.Core))
		d.str(c.TypeName)
		d.i64(c.BusyNs)
		d.i64(c.SleepNs)
		d.u64(c.Instr)
		d.f64(c.EnergyJ)
		d.i64(c.Switches)
	}
	for i := range s.Tasks {
		ts := &s.Tasks[i]
		d.i64(int64(ts.ID))
		d.str(ts.Name)
		d.str(ts.Benchmark)
		d.i64(int64(ts.State))
		d.i64(ts.RunNs)
		d.u64(ts.Instr)
		d.f64(ts.EnergyJ)
		d.i64(int64(ts.Migrations))
		d.i64(ts.SpawnedAt)
		d.i64(ts.FinishedAt)
	}
}

func (d *runDigester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:])
}

// TestRunDigests replays fixed-seed whole runs — SmartBalance on the
// paper's platform, the contended HexaDualCluster mix, a 256-core
// machine, a sleep-heavy mix whose wakeups tie with slice ends (in one
// Run and in 5 ms horizons), and a migration-refusing fault plan — and
// requires each run's trace and final statistics to hash to the
// committed digest. The event queue and every other kernel mechanism
// must preserve the simulated behaviour bit for bit.
func TestRunDigests(t *testing.T) {
	want := map[string]runDigest{}
	if !*updateDigests {
		raw, err := os.ReadFile(runDigestsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]runDigest{}
	for _, c := range digestCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			k := c.build(t)
			d := &runDigester{lastSlice: -1, lastWake: -1}
			k.AddObserver(d.observe)
			step := c.stepNs
			if step <= 0 {
				step = c.simNs
			}
			for at := step; at <= c.simNs; at += step {
				if err := k.Run(at); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d events, %d wakeup/slice-end ties", d.events, d.ties)
			if c.wantTies && d.ties == 0 {
				t.Fatalf("no wakeup tied with a slice end; the case no longer exercises the tie-break")
			}
			d.stats(k.Stats())
			rd := runDigest{Digest: d.sum(), Events: d.events}
			got[c.name] = rd
			if *updateDigests {
				return
			}
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("no committed digest; regenerate with -update")
			}
			if rd != w {
				t.Fatalf("run diverged: got %s over %d events, want %s over %d", rd.Digest, rd.Events, w.Digest, w.Events)
			}
		})
	}
	if *updateDigests {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
