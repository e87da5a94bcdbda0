package core

import (
	"testing"
	"unsafe"

	"smartbalance/internal/arch"
	"smartbalance/internal/balancer"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

// TestSmartBalanceSizeClass pins the controller to the 1,792-byte
// allocation size class: objects over 512 bytes carry an 8-byte malloc
// header, and the next class is 2,048 bytes.
func TestSmartBalanceSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(SmartBalance{}) + 8; n > 1792 {
		t.Fatalf("SmartBalance takes %d bytes with its malloc header, over the 1,792-byte size class: "+
			"the 2,048-byte class costs +256 B of live heap per controller", n)
	}
}

// runScenario executes specs on plat under balancer b for durNs.
func runScenario(t *testing.T, plat *arch.Platform, b kernel.Balancer, specs []workload.ThreadSpec, durNs int64) *kernel.RunStats {
	t.Helper()
	m, err := machine.New(plat)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(m, b, kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if _, err := k.Spawn(&specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(durNs); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return k.Stats()
}

func newSmartBalance(t *testing.T, types []arch.CoreType) *SmartBalance {
	t.Helper()
	pred, err := Train(types, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(pred, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Fatal("nil predictor accepted")
	}
	p, _ := NewPredictor(arch.Table2Types())
	if _, err := New(p, DefaultConfig()); err == nil {
		t.Fatal("untrained predictor accepted")
	}
}

// TestZeroMaxIterKeepsAnnealConfig: MaxIter <= 0 defers only the
// iteration budget to the epoch's scale. Both constructors still
// validate every other field, and the epoch config keeps the caller's
// seed and acceptance rule.
func TestZeroMaxIterKeepsAnnealConfig(t *testing.T) {
	pred, err := Train(arch.Table2Types(), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctors := map[string]func(Config) error{
		"New":       func(c Config) error { _, err := New(pred, c); return err },
		"NewOracle": func(c Config) error { _, err := NewOracle(c); return err },
	}
	for _, tc := range []struct {
		name  string
		mod   func(*AnnealConfig)
		valid bool
	}{
		{"default", func(*AnnealConfig) {}, true},
		{"seed-and-float", func(c *AnnealConfig) { c.Seed, c.UseFloat = 42, true }, true},
		{"negative-perturb", func(c *AnnealConfig) { c.Perturb = -1 }, false},
		{"zero-accept", func(c *AnnealConfig) { c.Accept = 0 }, false},
		{"swap-above-one", func(c *AnnealConfig) { c.SwapFraction = 2 }, false},
	} {
		cfg := DefaultConfig()
		cfg.Anneal.MaxIter = 0
		tc.mod(&cfg.Anneal)
		for name, ctor := range ctors {
			if err := ctor(cfg); (err == nil) != tc.valid {
				t.Errorf("%s: %s error = %v, want valid=%v", tc.name, name, err, tc.valid)
			}
		}
		want := cfg.Anneal
		want.MaxIter = ScaledMaxIter(4, 8)
		if got := epochAnneal(cfg.Anneal, 4, 8, 0); got != want {
			t.Errorf("%s: epoch config %#v, want %#v", tc.name, got, want)
		}
	}
}

func TestSmartBalanceName(t *testing.T) {
	sb := newSmartBalance(t, arch.Table2Types())
	if sb.Name() != "smartbalance" {
		t.Fatalf("Name() = %q", sb.Name())
	}
}

func TestSenseFromSample(t *testing.T) {
	// SenseChecked is exercised end-to-end below; here check the nil
	// path.
	if _, st := SenseChecked(nil, 0.5, arch.QuadHMP()); st != SenseNoSample {
		t.Fatalf("nil sample: status %v, want no sample", st)
	}
}

func TestSmartBalanceBeatsVanillaOnMixes(t *testing.T) {
	// The headline result (Fig. 4b shape): on the 4-type HMP,
	// SmartBalance must deliver substantially better IPS/W than the
	// capability-blind vanilla balancer.
	plat := arch.QuadHMP()
	const dur = 1_500e6 // 1.5 s
	var ratios []float64
	for _, mix := range []string{"Mix1", "Mix5"} {
		specs, err := workload.Mix(mix, 2, 42)
		if err != nil {
			t.Fatal(err)
		}
		van := runScenario(t, plat, balancer.Vanilla{}, specs, dur)
		specs2, _ := workload.Mix(mix, 2, 42)
		sb := newSmartBalance(t, arch.Table2Types())
		smart := runScenario(t, plat, sb, specs2, dur)
		ratio := smart.EnergyEfficiency() / van.EnergyEfficiency()
		ratios = append(ratios, ratio)
		oh := sb.Overhead()
		t.Logf("%s: smart %.4g IPS/W vs vanilla %.4g IPS/W -> %.2fx (overhead/epoch %v)",
			mix, smart.EnergyEfficiency(), van.EnergyEfficiency(), ratio, oh.PerEpoch())
		if ratio < 1.15 {
			t.Errorf("%s: SmartBalance gain only %.2fx over vanilla", mix, ratio)
		}
	}
}

func TestSmartBalanceBeatsGTSOnBigLittle(t *testing.T) {
	// Fig. 5 shape: on the octa-core big.LITTLE, SmartBalance should
	// outperform ARM GTS on energy efficiency.
	plat := arch.OctaBigLittle()
	specs, err := workload.Mix("Mix6", 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	gts, err := balancer.NewGTS(plat)
	if err != nil {
		t.Fatal(err)
	}
	g := runScenario(t, plat, gts, specs, 1_500e6)
	specs2, _ := workload.Mix("Mix6", 2, 11)
	sb := newSmartBalance(t, arch.BigLittleTypes())
	s := runScenario(t, plat, sb, specs2, 1_500e6)
	ratio := s.EnergyEfficiency() / g.EnergyEfficiency()
	t.Logf("big.LITTLE Mix6: smart %.4g vs GTS %.4g IPS/W -> %.2fx",
		s.EnergyEfficiency(), g.EnergyEfficiency(), ratio)
	if ratio < 1.02 {
		t.Errorf("SmartBalance gain over GTS only %.2fx", ratio)
	}
}

func TestSmartBalanceTracksOverhead(t *testing.T) {
	plat := arch.QuadHMP()
	sb := newSmartBalance(t, arch.Table2Types())
	specs, _ := workload.Mix("Mix1", 2, 3)
	_ = runScenario(t, plat, sb, specs, 600e6)
	o := sb.Overhead()
	if o.Epochs != 10 {
		t.Fatalf("overhead epochs %d, want 10", o.Epochs)
	}
	if o.Total() <= 0 {
		t.Fatal("no overhead recorded")
	}
	if o.Optimize <= 0 || o.Sense <= 0 || o.Predict <= 0 {
		t.Fatalf("per-phase overheads missing: %+v", o)
	}
	if o.PerEpoch() <= 0 {
		t.Fatal("per-epoch overhead missing")
	}
}

func TestSmartBalanceHandlesEmptySystem(t *testing.T) {
	plat := arch.QuadHMP()
	sb := newSmartBalance(t, arch.Table2Types())
	m, _ := machine.New(plat)
	k, _ := kernel.New(m, sb, kernel.DefaultConfig())
	if err := k.Run(200e6); err != nil {
		t.Fatal(err)
	}
	// No tasks: nothing to do, no crash.
	if k.Stats().TotalInstructions() != 0 {
		t.Fatal("phantom instructions")
	}
}

func TestSmartBalanceRefusesMismatchedPlatform(t *testing.T) {
	// Predictor trained for 4 types, platform has 2: controller must
	// decline to act (and not corrupt anything).
	sb := newSmartBalance(t, arch.Table2Types())
	plat := arch.OctaBigLittle()
	specs, _ := workload.Benchmark("swaptions", 2, 1)
	stats := runScenario(t, plat, sb, specs, 300e6)
	if stats.Migrations != 0 {
		t.Fatal("mismatched controller migrated tasks")
	}
}

func TestSmartBalanceSleepyThreadsKeepLastMeasurement(t *testing.T) {
	// A thread that sleeps through entire epochs must still be placed
	// using its last known characterisation (no crash / no churn).
	plat := arch.QuadHMP()
	sb := newSmartBalance(t, arch.Table2Types())
	spec := workload.ThreadSpec{
		Name:      "narcoleptic",
		Benchmark: "sleepy",
		Phases: []workload.Phase{{
			Name: "blip", Instructions: 1e6, ILP: 2, MemShare: 0.3, BranchShare: 0.1,
			WorkingSetIKB: 8, WorkingSetDKB: 64, BranchEntropy: 0.4, MLP: 2,
			SleepAfterNs: 200e6, // sleeps >3 epochs at a time
		}},
	}
	busy, _ := workload.Benchmark("swaptions", 2, 5)
	specs := append(busy, spec)
	stats := runScenario(t, plat, sb, specs, 900e6)
	if stats.TotalInstructions() == 0 {
		t.Fatal("no work done")
	}
}

func TestBuildProblemShape(t *testing.T) {
	plat := arch.QuadHMP()
	sb := newSmartBalance(t, arch.Table2Types())
	m, _ := machine.New(plat)
	k, _ := kernel.New(m, sb, kernel.DefaultConfig())
	specs, _ := workload.Benchmark("canneal", 3, 8)
	for i := range specs {
		_, _ = k.Spawn(&specs[i])
	}
	if err := k.Run(400e6); err != nil {
		t.Fatal(err)
	}
	meas := []Measurement{
		{SrcType: 0, IPC: 1.2, IPS: 2.4e9, PowerW: 5, Util: 1, Valid: true},
		{SrcType: 3, IPC: 0.5, IPS: 0.25e9, PowerW: 0.06, Util: 0.4, Valid: true},
	}
	prob, err := sb.buildProblem(plat, k, meas)
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	if prob.NumThreads() != 2 || prob.NumCores() != 4 {
		t.Fatalf("problem shape %dx%d", prob.NumThreads(), prob.NumCores())
	}
	// Same-type entries must equal the measurements.
	if prob.IPS[0][0] != 2.4e9 || prob.Power[0][0] != 5 {
		t.Fatal("measured entries not preserved")
	}
	if prob.IPS[1][3] != 0.25e9 {
		t.Fatal("measured small-core entry not preserved")
	}
	// Predicted entries must be positive and bounded by peak.
	for i := range prob.IPS {
		for j := range prob.IPS[i] {
			ct := plat.Type(arch.CoreID(j))
			if prob.IPS[i][j] <= 0 || prob.IPS[i][j] > ct.PeakIPC*ct.FreqHz()+1 {
				t.Fatalf("IPS[%d][%d] = %g out of range", i, j, prob.IPS[i][j])
			}
			if prob.Power[i][j] < 0 {
				t.Fatalf("negative power prediction at (%d,%d)", i, j)
			}
		}
	}
}

func TestOracleProblem(t *testing.T) {
	plat := arch.QuadHMP()
	m, _ := machine.New(plat)
	k, _ := kernel.New(m, balancer.Pinned{}, kernel.DefaultConfig())
	specs, _ := workload.Benchmark("swaptions", 2, 2)
	for i := range specs {
		_, _ = k.Spawn(&specs[i])
	}
	if err := k.Run(100e6); err != nil {
		t.Fatal(err)
	}
	prob, err := OracleProblem(plat, k, k.ActiveTasks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	// Oracle IPS on Huge must exceed IPS on Small for compute-bound work.
	if prob.IPS[0][0] <= prob.IPS[0][3] {
		t.Fatalf("oracle lost heterogeneity: %g <= %g", prob.IPS[0][0], prob.IPS[0][3])
	}
}

func TestKernelThreadsLeftAlone(t *testing.T) {
	// Section 5.1: threads marked as kernel threads at fork are not
	// re-allocated by SmartBalance; user threads are.
	plat := arch.QuadHMP()
	sb := newSmartBalance(t, arch.Table2Types())
	m, _ := machine.New(plat)
	k, _ := kernel.New(m, sb, kernel.DefaultConfig())

	kspec := workload.ThreadSpec{
		Name:         "kworker",
		Benchmark:    "kernel",
		KernelThread: true,
		Phases: []workload.Phase{{
			Name: "housekeeping", Instructions: 2e6, ILP: 1.5, MemShare: 0.3, BranchShare: 0.15,
			WorkingSetIKB: 6, WorkingSetDKB: 32, BranchEntropy: 0.4, MLP: 1.5,
			SleepAfterNs: 8e6,
		}},
	}
	kid, err := k.Spawn(&kspec)
	if err != nil {
		t.Fatal(err)
	}
	home := k.Task(kid).Core()
	users, _ := workload.Benchmark("canneal", 3, 17)
	for i := range users {
		_, _ = k.Spawn(&users[i])
	}
	if err := k.Run(900e6); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	kt := k.Task(kid)
	if !kt.IsKernelThread() {
		t.Fatal("kernel-thread mark lost")
	}
	if kt.Migrations() != 0 || kt.Core() != home {
		t.Fatalf("kernel thread was re-allocated: core %d->%d, %d migrations",
			home, kt.Core(), kt.Migrations())
	}
	// The user threads must have been balanced as usual.
	migrated := 0
	for _, task := range k.Tasks() {
		if !task.IsKernelThread() && task.Migrations() > 0 {
			migrated++
		}
	}
	if migrated == 0 {
		t.Fatal("no user thread was ever migrated")
	}
}
