package smartbalance

import (
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	plat := QuadHMP()
	bal, err := TrainSmartBalance(plat.Types, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(plat, bal)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := Mix("Mix1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SpawnAll(specs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.TotalInstructions() == 0 {
		t.Fatal("no work executed")
	}
	if st.EnergyEfficiency() <= 0 {
		t.Fatal("no efficiency computed")
	}
	if err := sys.Kernel().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Run extension through the facade.
	before := st.TotalInstructions()
	if err := sys.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().TotalInstructions() <= before {
		t.Fatal("extension made no progress")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, NewVanillaBalancer()); err == nil {
		t.Fatal("nil platform accepted")
	}
	if _, err := NewSystem(QuadHMP(), nil); err == nil {
		t.Fatal("nil balancer accepted")
	}
}

func TestRunValidation(t *testing.T) {
	sys, err := NewSystem(QuadHMP(), NewVanillaBalancer())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(0); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := sys.Run(-time.Second); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestBalancerConstructors(t *testing.T) {
	if NewVanillaBalancer().Name() != "vanilla-linux" {
		t.Fatal("vanilla constructor broken")
	}
	if NewPinnedBalancer().Name() != "pinned" {
		t.Fatal("pinned constructor broken")
	}
	bl := OctaBigLittle()
	g, err := NewGTSBalancer(bl)
	if err != nil || g.Name() != "arm-gts" {
		t.Fatalf("GTS constructor: %v", err)
	}
	ik, err := NewIKSBalancer(bl)
	if err != nil || ik.Name() != "linaro-iks" {
		t.Fatalf("IKS constructor: %v", err)
	}
	if _, err := NewGTSBalancer(QuadHMP()); err == nil {
		t.Fatal("GTS on 4-type platform accepted")
	}
}

func TestWorkloadPassthroughs(t *testing.T) {
	if len(Benchmarks()) < 14 {
		t.Fatal("benchmark list short")
	}
	if len(MixNames()) != 6 {
		t.Fatal("mix list wrong")
	}
	specs, err := IMB(High, Low, 3, 1)
	if err != nil || len(specs) != 3 {
		t.Fatalf("IMB passthrough: %v", err)
	}
	if _, err := Benchmark("nope", 1, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPlatformPassthroughs(t *testing.T) {
	if QuadHMP().NumCores() != 4 || OctaBigLittle().NumCores() != 8 {
		t.Fatal("platform constructors broken")
	}
	p, err := ScalingHMP(16)
	if err != nil || p.NumCores() != 16 {
		t.Fatalf("ScalingHMP: %v", err)
	}
	if len(Table2Types()) != 4 || len(BigLittleTypes()) != 2 {
		t.Fatal("type sets broken")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 24 { // Table 1 + 9 evaluation artefacts + 14 ablations
		t.Fatalf("%d experiment ids", len(ids))
	}
	opts := DefaultExperimentOptions()
	opts.Quick = true
	opts.DurationNs = 200e6
	opts.ThreadCounts = []int{2}
	res, err := RunExperiment("T3", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "T3" || res.Table.NumRows() != 6 {
		t.Fatal("T3 regeneration broken via facade")
	}
	if _, err := RunExperiment("F99", opts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTrainPredictorFacade(t *testing.T) {
	pred, err := TrainPredictor(Table2Types(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Trained() {
		t.Fatal("facade-trained predictor incomplete")
	}
}

func TestObjectiveGoalFacade(t *testing.T) {
	pred, err := TrainPredictor(Table2Types(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSmartBalanceConfig()
	cfg.Objective = GoalMaxThroughput
	ctrl, err := NewSmartBalanceController(pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(QuadHMP(), ctrl)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := Benchmark("swaptions", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SpawnAll(specs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(800 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	throughput := sys.Stats().IPS()

	// Same workload under the efficiency goal: strictly less throughput.
	ee, err := TrainSmartBalance(Table2Types(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sys2, _ := NewSystem(QuadHMP(), ee)
	specs2, _ := Benchmark("swaptions", 4, 3)
	_ = sys2.SpawnAll(specs2)
	_ = sys2.Run(800 * time.Millisecond)
	if throughput <= sys2.Stats().IPS() {
		t.Fatalf("throughput goal did not raise IPS: %.4g vs %.4g", throughput, sys2.Stats().IPS())
	}
}

func TestThermalFacade(t *testing.T) {
	plat := QuadHMP()
	aw, tracker, err := NewThermalSmartBalance(plat, 4)
	if err != nil {
		t.Fatal(err)
	}
	if aw.Name() != "smartbalance-thermal" {
		t.Fatalf("Name() = %q", aw.Name())
	}
	sys, err := NewSystem(plat, aw)
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := Benchmark("swaptions", 2, 4)
	if err := sys.SpawnAll(specs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if tracker.Max() <= 0 {
		t.Fatal("tracker never updated")
	}
	if sys.Stats().TotalInstructions() == 0 {
		t.Fatal("no work under thermal wrapper")
	}
}

func TestWorkloadBuilderFacade(t *testing.T) {
	specs, err := NewWorkload("svc").
		Compute(5e6, 2.0).
		Sleep(3*time.Millisecond).
		Workers(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("%d workers", len(specs))
	}
	if _, err := NewWorkload("").Compute(1e6, 2).Build(); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestDVFSFacade(t *testing.T) {
	points := []OperatingPoint{{FreqMHz: 1500, VoltageV: 0.8}, {FreqMHz: 500, VoltageV: 0.6}}
	p, err := DVFSPlatform(Table2Types()[1], points, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCores() != 4 || p.NumTypes() != 2 {
		t.Fatalf("DVFS platform %d cores, %d types", p.NumCores(), p.NumTypes())
	}
	if _, err := DVFSPlatform(Table2Types()[1], nil, 1); err == nil {
		t.Fatal("empty points accepted")
	}
}

func TestSystemFullFacade(t *testing.T) {
	sys, err := NewSystemFull(QuadHMP(), NewVanillaBalancer(), DefaultKernelConfig(),
		MachineOptions{BusBandwidthGBps: 4})
	if err != nil {
		t.Fatal(err)
	}
	tel := sys.EnableTelemetry(TelemetryConfig{})
	specs, _ := Benchmark("canneal", 2, 2)
	_ = sys.SpawnAll(specs)
	if err := sys.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got, want := tel.Counter("kernel_instructions_total").Value(), int64(sys.Stats().TotalInstructions()); got == 0 || got != want {
		t.Fatalf("kernel_instructions_total = %d, RunStats say %d", got, want)
	}
	if _, err := NewSystemFull(QuadHMP(), NewVanillaBalancer(), DefaultKernelConfig(),
		MachineOptions{BusBandwidthGBps: -1}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestWriteReportFacade(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.Quick = true
	opts.DurationNs = 200e6
	opts.ThreadCounts = []int{2}
	res, err := RunExperiment("T2", opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteReport(&sb, []*ExperimentResult{res}, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "T2") {
		t.Fatal("report missing artefact")
	}
}
