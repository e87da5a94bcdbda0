package fault

import (
	"errors"
	"math"
	"testing"

	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
)

// mkSample builds a single-core thread sample with plausible counters.
func mkSample(core int, instr uint64, energy float64) *hpc.ThreadEpochSample {
	return &hpc.ThreadEpochSample{PerCore: []hpc.CoreCounters{{
		Core: core,
		C: hpc.Counters{
			RunNs:        1_000_000,
			Instructions: instr,
			CyclesBusy:   instr + instr/2,
			EnergyJ:      energy,
		},
	}}}
}

func mkThreads(n int) []hpc.ThreadSample {
	m := make([]hpc.ThreadSample, n)
	for i := 0; i < n; i++ {
		m[i] = hpc.ThreadSample{Thread: i, Sample: mkSample(i%2, 1000+uint64(i), 0.01*float64(i+1))}
	}
	return m
}

func mkCores() []hpc.CoreEpochSample {
	return []hpc.CoreEpochSample{
		{BusyNs: 1e6, Agg: hpc.Counters{EnergyJ: 0.5}, SleepEnergyJ: 0.05},
		{BusyNs: 2e6, Agg: hpc.Counters{EnergyJ: 0.8}, SleepEnergyJ: 0.02},
	}
}

func TestZeroPlanIsPassthrough(t *testing.T) {
	in, err := New(Plan{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	threads := mkThreads(4)
	cores := mkCores()
	outT, outC := in.FilterEpoch(1, 0, threads, cores)
	// Identity, not just equality: zero plans must not copy or redraw.
	if len(outT) != len(threads) {
		t.Fatalf("thread count changed: %d -> %d", len(threads), len(outT))
	}
	for tid, s := range threads {
		if outT[tid] != s {
			t.Fatalf("thread %d sample was copied by a zero plan", tid)
		}
	}
	if &outC[0] != &cores[0] {
		t.Fatal("core slice was copied by a zero plan")
	}
	if err := in.MigrateFault(0, 1, 0); err != nil {
		t.Fatalf("zero plan refused a migration: %v", err)
	}
	if s := in.Stats(); s.Dropped+s.Staled+s.Corrupted+s.PowerDrops+s.PowerSpikes+s.MigrateFails != 0 {
		t.Fatalf("zero plan materialised faults: %+v", s)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	plan := Plan{DropRate: 0.2, StaleRate: 0.2, CorruptRate: 0.2, PowerDropRate: 0.1, PowerSpikeRate: 0.1, MigrateFailRate: 0.3}
	run := func(seed uint64) (Stats, map[int]float64) {
		in, err := New(plan, seed)
		if err != nil {
			t.Fatal(err)
		}
		energies := make(map[int]float64)
		for epoch := 1; epoch <= 50; epoch++ {
			threads, cores := in.FilterEpoch(epoch, kernel.Time(epoch)*60e6, mkThreads(6), mkCores())
			for _, s := range threads {
				tot := s.Sample.Total()
				energies[s.Thread*1000+epoch] = tot.EnergyJ
			}
			_ = cores
			_ = in.MigrateFault(kernel.Time(epoch)*60e6, 1, 0)
		}
		return in.Stats(), energies
	}
	s1, e1 := run(7)
	s2, e2 := run(7)
	if s1 != s2 {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	for k, v := range e1 {
		if e2[k] != v { //sbvet:allow floateq(bit-identity is the property under test)
			t.Fatalf("same seed diverged at %d: %g vs %g", k, v, e2[k])
		}
	}
	s3, _ := run(8)
	if s1 == s3 {
		t.Fatalf("different seeds produced identical stats %+v (suspicious)", s1)
	}
}

func TestDropRateOne(t *testing.T) {
	in, err := New(Plan{DropRate: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := in.FilterEpoch(1, 0, mkThreads(5), mkCores())
	if len(out) != 0 {
		t.Fatalf("full dropout left %d samples", len(out))
	}
	if s := in.Stats(); s.Dropped != 5 {
		t.Fatalf("want 5 drops, got %+v", s)
	}
}

func TestStaleReplaysPreviousEpoch(t *testing.T) {
	in, err := New(Plan{StaleRate: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1: no history, so stale degrades to drop.
	out1, _ := in.FilterEpoch(1, 0, []hpc.ThreadSample{{Thread: 3, Sample: mkSample(0, 100, 1.0)}}, mkCores())
	if len(out1) != 0 {
		t.Fatalf("stale with no history should drop, got %d samples", len(out1))
	}
	// Epoch 2: replays epoch 1's clean sample, not epoch 2's.
	out2, _ := in.FilterEpoch(2, 0, []hpc.ThreadSample{{Thread: 3, Sample: mkSample(0, 200, 2.0)}}, mkCores())
	s := hpc.FindThread(out2, 3)
	if s == nil {
		t.Fatal("stale fault dropped the sample instead of replaying")
	}
	if got := s.Total().Instructions; got != 100 {
		t.Fatalf("want epoch-1 instructions 100 replayed, got %d", got)
	}
	// Epoch 3 replays epoch 2's clean value: prev tracks the true
	// snapshot, not the perturbed one.
	out3, _ := in.FilterEpoch(3, 0, []hpc.ThreadSample{{Thread: 3, Sample: mkSample(0, 300, 3.0)}}, mkCores())
	if got := hpc.FindThread(out3, 3).Total().Instructions; got != 200 {
		t.Fatalf("want epoch-2 instructions 200 replayed, got %d", got)
	}
	st := in.Stats()
	if st.Dropped != 1 || st.Staled != 2 {
		t.Fatalf("want 1 drop + 2 stales, got %+v", st)
	}
}

func TestCorruptZeroesOrSaturates(t *testing.T) {
	in, err := New(Plan{CorruptRate: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	zeroed, sat := 0, 0
	for epoch := 1; epoch <= 20; epoch++ {
		out, _ := in.FilterEpoch(epoch, 0, []hpc.ThreadSample{{Thread: 1, Sample: mkSample(0, 500, 1.0)}}, mkCores())
		tot := hpc.FindThread(out, 1).Total()
		switch tot.Instructions {
		case 0:
			zeroed++
		case saturated:
			sat++
		default:
			t.Fatalf("corrupt sample has ordinary instruction count %d", tot.Instructions)
		}
	}
	if zeroed == 0 || sat == 0 {
		t.Fatalf("both corruption flavours should appear over 20 epochs: zeroed=%d saturated=%d", zeroed, sat)
	}
	if s := in.Stats(); s.Corrupted != 20 {
		t.Fatalf("want 20 corruptions, got %+v", s)
	}
}

func TestPowerFaults(t *testing.T) {
	in, err := New(Plan{PowerDropRate: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	threads := []hpc.ThreadSample{{Thread: 1, Sample: mkSample(0, 500, 2.5)}}
	outT, outC := in.FilterEpoch(1, 0, threads, mkCores())
	if e := hpc.FindThread(outT, 1).Total().EnergyJ; e != 0 { //sbvet:allow floateq(injected drop writes exactly zero)
		t.Fatalf("power drop left thread energy %g", e)
	}
	for i := range outC {
		if outC[i].Agg.EnergyJ != 0 || outC[i].SleepEnergyJ != 0 { //sbvet:allow floateq(injected drop writes exactly zero)
			t.Fatalf("power drop left core %d energy %g/%g", i, outC[i].Agg.EnergyJ, outC[i].SleepEnergyJ)
		}
	}
	// Ground truth must be untouched.
	if e := threads[0].Sample.Total().EnergyJ; math.Abs(e-2.5) > 1e-15 {
		t.Fatalf("injector mutated the clean sample: %g", e)
	}

	spike, err := New(Plan{PowerSpikeRate: 1, SpikeFactor: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	outT, outC = spike.FilterEpoch(1, 0, []hpc.ThreadSample{{Thread: 1, Sample: mkSample(0, 500, 2.5)}}, mkCores())
	if e := hpc.FindThread(outT, 1).Total().EnergyJ; math.Abs(e-10) > 1e-12 {
		t.Fatalf("want 4x spike = 10 J, got %g", e)
	}
	if e := outC[0].Agg.EnergyJ; math.Abs(e-2.0) > 1e-12 {
		t.Fatalf("want core spike 0.5*4 = 2 J, got %g", e)
	}
}

func TestMigrateFault(t *testing.T) {
	in, err := New(Plan{MigrateFailRate: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	errFault := in.MigrateFault(0, 7, 2)
	if !errors.Is(errFault, ErrMigrationRefused) {
		t.Fatalf("want ErrMigrationRefused, got %v", errFault)
	}
	if s := in.Stats(); s.MigrateFails != 1 {
		t.Fatalf("want 1 migrate fail, got %+v", s)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	cases := []Plan{
		{},
		{DropRate: 0.5},
		{DropRate: 0.25, StaleRate: 0.125, CorruptRate: 0.0625, PowerDropRate: 0.03125, PowerSpikeRate: 0.015625, MigrateFailRate: 0.75, SpikeFactor: 12, Seed: 99},
	}
	for _, want := range cases {
		spec := want.String()
		got, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if got != want {
			t.Fatalf("round trip %q: got %+v want %+v", spec, got, want)
		}
	}
	if p, err := ParsePlan("none"); err != nil || !p.IsZero() {
		t.Fatalf(`ParsePlan("none") = %+v, %v`, p, err)
	}
	if (Plan{}).String() != "none" {
		t.Fatalf("zero plan renders as %q", (Plan{}).String())
	}
	for _, bad := range []string{"drop", "drop=x", "bogus=1", "drop=1.5", "drop=0.7;stale=0.7", "spikex=0.5", "seed=-1",
		"powerspike=0.5;spikex=NaN", "powerspike=0.5;spikex=Inf"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) accepted invalid spec", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Plan{DropRate: math.NaN()}).Validate(); err == nil {
		t.Fatal("NaN rate accepted")
	}
	if err := (Plan{DropRate: 0.5, StaleRate: 0.5, CorruptRate: 0.5}).Validate(); err == nil {
		t.Fatal("sensor rates summing to 1.5 accepted")
	}
	if err := (Plan{DropRate: 0.4, StaleRate: 0.3, CorruptRate: 0.3}).Validate(); err != nil {
		t.Fatalf("sensor rates summing to 1.0 rejected: %v", err)
	}
}

var _ kernel.FaultInjector = (*Injector)(nil)

func TestClampedProducesValidPlans(t *testing.T) {
	cases := []Plan{
		{},
		{DropRate: 0.3, MigrateFailRate: 0.5},
		{DropRate: -0.2, StaleRate: 1.7}, // out of range both ways
		{DropRate: 0.5, StaleRate: 0.5, CorruptRate: 0.5, PowerDropRate: 1}, // sensor sum 2.5
		{SpikeFactor: 0.3}, // below the minimum
		{SpikeFactor: -2},  // nonsense
		{DropRate: math.NaN(), PowerSpikeRate: math.Inf(1)},
		{PowerSpikeRate: 0.5, SpikeFactor: math.Inf(1)}, // multiplies power by infinity
		{PowerSpikeRate: 0.5, SpikeFactor: math.NaN()},
	}
	for i, p := range cases {
		q := p.Clamped()
		if err := q.Validate(); err != nil {
			t.Errorf("case %d: Clamped() still invalid: %v (plan %+v)", i, err, q)
		}
	}
	// Valid plans pass through unchanged.
	p := Plan{DropRate: 0.2, MigrateFailRate: 0.4, SpikeFactor: 5, Seed: 9}
	if q := p.Clamped(); q != p {
		t.Errorf("valid plan changed by Clamped: %+v -> %+v", p, q)
	}
	// Oversubscribed sensor rates keep their proportions.
	over := Plan{DropRate: 1, StaleRate: 1}
	q := over.Clamped()
	if q.DropRate != q.StaleRate { //sbvet:allow floateq(identical inputs must rescale identically — exactness is the point)
		t.Errorf("proportional rescale broke symmetry: %+v", q)
	}
	if s := q.sensorSum(); s > 1+1e-12 {
		t.Errorf("rescaled sensor sum %v still > 1", s)
	}
}
