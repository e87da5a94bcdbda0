package contention

import (
	"math"
	"testing"

	"smartbalance/internal/arch"
)

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Enabled: true},
		{Enabled: true, LLCKB: 512},
		{Enabled: true, BWGBps: 4},
		{Enabled: true, MissSlope: 1.5},
		{Enabled: true, LLCKB: 2048, BWGBps: 12.5, MissSlope: 0.25},
		{Enabled: true, BusGBps: 2},
	}
	if got := (Spec{Enabled: true, BusGBps: 2}).String(); got != "on,bus=2" {
		t.Fatalf("bus spec renders %q, want \"on,bus=2\"", got)
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %q: got %+v want %+v", s.String(), got, s)
		}
	}
}

func TestParseSpecDisabledForms(t *testing.T) {
	for _, in := range []string{"", "none", "off"} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if s.Enabled {
			t.Fatalf("ParseSpec(%q) enabled", in)
		}
		if s.String() != "" {
			t.Fatalf("disabled spec renders %q, want empty", s.String())
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"maybe",          // unknown mode
		"on,llc",         // malformed pair
		"on,llc=x",       // non-numeric
		"on,cache=64",    // unknown key
		"on,llc=-1",      // negative capacity
		"on,llc=2097152", // capacity above 1 GiB
		"on,bw=-2",       // negative bandwidth
		"on,bw=4096",     // bandwidth above 1 TB/s
		"on,bus=-1",      // negative bus bandwidth
		"on,bus=2000",    // bus bandwidth above 1 TB/s
		"on,slope=-0.1",  // negative slope
		"on,slope=9",     // slope above cap
		"off,llc=64",     // disabled spec with overrides
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

// TestParseSpecRejectsNonFinite: NaN overrides used to validate and
// then render as plain "on", breaking ParseSpec(s.String()) == s.
func TestParseSpecRejectsNonFinite(t *testing.T) {
	for _, p := range []string{"llc", "bw", "bus", "slope"} {
		for _, v := range []string{"NaN", "Inf", "-Inf"} {
			in := "on," + p + "=" + v
			if s, err := ParseSpec(in); err == nil {
				t.Errorf("ParseSpec(%q) accepted as %q", in, s.String())
			}
		}
	}
	if err := (Spec{Enabled: true, MissSlope: math.NaN()}).Validate(); err == nil {
		t.Error("Validate accepted MissSlope = NaN")
	}
}

func TestValidateDisabledWithOverrides(t *testing.T) {
	if err := (Spec{LLCKB: 64}).Validate(); err == nil {
		t.Fatal("disabled spec with llc override accepted")
	}
	if err := (Spec{BusGBps: 2}).Validate(); err == nil {
		t.Fatal("disabled spec with a bus accepted")
	}
}

func TestNewModelDisabledIsNil(t *testing.T) {
	m, err := NewModel(arch.QuadHMP(), Spec{})
	if err != nil || m != nil {
		t.Fatalf("disabled spec: got (%v, %v), want (nil, nil)", m, err)
	}
}

func TestNewModelRejectsEmptyPlatform(t *testing.T) {
	if _, err := NewModel(nil, Spec{Enabled: true}); err == nil {
		t.Fatal("nil platform accepted")
	}
	if _, err := NewModel(&arch.Platform{}, Spec{Enabled: true}); err == nil {
		t.Fatal("empty platform accepted")
	}
}

// TestDomainsQuadSingletons: the per-core-type quad has no contiguous
// same-type run longer than one core, so every core is its own LLC
// domain — contention flows only through the memory fabric.
func TestDomainsQuadSingletons(t *testing.T) {
	m, err := NewModel(arch.QuadHMP(), Spec{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDomains() != 4 || m.NumCores() != 4 {
		t.Fatalf("quad: %d domains over %d cores, want 4/4", m.NumDomains(), m.NumCores())
	}
	wantLLC := []float64{1024, 512, 256, 256}
	for c := 0; c < 4; c++ {
		if m.DomainOf(arch.CoreID(c)) != c {
			t.Fatalf("core %d in domain %d, want singleton", c, m.DomainOf(arch.CoreID(c)))
		}
		if m.DomainLLCKB(c) != wantLLC[c] {
			t.Fatalf("domain %d LLC %g KB, want %g", c, m.DomainLLCKB(c), wantLLC[c])
		}
		if m.DomainBWGBps(c) != DefaultBWGBps {
			t.Fatalf("domain %d BW %g, want default %g", c, m.DomainBWGBps(c), DefaultBWGBps)
		}
	}
}

// TestDomainsOctaClusters: big.LITTLE groups into one big and one
// little cluster with the members' L2 allocations pooled.
func TestDomainsOctaClusters(t *testing.T) {
	m, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true, BWGBps: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDomains() != 2 {
		t.Fatalf("octa: %d domains, want 2", m.NumDomains())
	}
	if m.DomainLLCKB(0) != 2048 || m.DomainLLCKB(1) != 1024 {
		t.Fatalf("cluster LLCs %g/%g KB, want 2048/1024", m.DomainLLCKB(0), m.DomainLLCKB(1))
	}
	for c := 0; c < 8; c++ {
		want := 0
		if c >= 4 {
			want = 1
		}
		if m.DomainOf(arch.CoreID(c)) != want {
			t.Fatalf("core %d in domain %d, want %d", c, m.DomainOf(arch.CoreID(c)), want)
		}
		if d := m.DomainOf(arch.CoreID(c)); m.DomainBWGBps(d) != 16 {
			t.Fatalf("bw override not applied on domain %d", d)
		}
	}
}

func TestLLCOverrideAppliesToEveryDomain(t *testing.T) {
	m, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true, LLCKB: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < m.NumDomains(); d++ {
		if m.DomainLLCKB(d) != 4096 {
			t.Fatalf("domain %d LLC %g, want override 4096", d, m.DomainLLCKB(d))
		}
	}
}

// TestSoloFactorsExactlyOne pins the byte-identity invariant: a core's
// own footprint never degrades itself, so a thread alone in its domain
// sees MissScale == LatScale == 1 exactly (not approximately).
func TestSoloFactorsExactlyOne(t *testing.T) {
	m, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 runs hot, alone in the big cluster; core 4 alone in the
	// little cluster.
	for i := 0; i < 50; i++ {
		m.RecordSlice(0, 1e6, 1024, 5e6)
		m.RecordSlice(4, 1e6, 256, 2e6)
	}
	for _, c := range []arch.CoreID{0, 4} {
		if ms := m.MissScale(c); ms != 1 {
			t.Fatalf("solo core %d MissScale %v, want exactly 1", c, ms)
		}
		if ls := m.LatScale(c); ls != 1 {
			t.Fatalf("solo core %d LatScale %v, want exactly 1", c, ls)
		}
	}
	// Its idle neighbours, however, see the pressure.
	if ms := m.MissScale(1); ms <= 1 {
		t.Fatalf("co-runner MissScale %v, want > 1", ms)
	}
	if ls := m.LatScale(1); ls <= 1 {
		t.Fatalf("co-runner LatScale %v, want > 1", ls)
	}
	// The little cluster's pressure stays inside the little cluster.
	if m.MissScale(5) <= 1 || m.MissScale(1) == m.MissScale(5) {
		t.Fatalf("cluster isolation broken: big-neighbour %v vs little-neighbour %v",
			m.MissScale(1), m.MissScale(5))
	}
}

// TestMissScaleMonotoneInOverlap: more co-runner working set means a
// larger (or equal, once clamped) inflation factor.
func TestMissScaleMonotoneInOverlap(t *testing.T) {
	prev := 0.0
	for _, wsKB := range []float64{0, 256, 1024, 4096, 16384, 1 << 20} {
		m, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			m.RecordSlice(1, 1e6, wsKB, 0)
		}
		ms := m.MissScale(0)
		if ms < prev {
			t.Fatalf("MissScale not monotone: ws %g KB gives %v after %v", wsKB, ms, prev)
		}
		if !finite(ms) || ms < 1 {
			t.Fatalf("MissScale(ws=%g) = %v outside [1, inf)", wsKB, ms)
		}
		if max := 1 + DefaultMissSlope*DefaultPressureCap; ms > max {
			t.Fatalf("MissScale %v above pressure-cap bound %v", ms, max)
		}
		prev = ms
	}
}

// TestLatScaleSaturationClamp: unbounded co-runner traffic saturates at
// the maxBWUtil queueing clamp and never goes non-finite.
func TestLatScaleSaturationClamp(t *testing.T) {
	m, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true, BWGBps: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, missBytes := range []float64{0, 1e5, 1e6, 1e7, 1e9, 1e12} {
		mm, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true, BWGBps: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			mm.RecordSlice(1, 1e6, 0, missBytes)
		}
		ls := mm.LatScale(0)
		if !finite(ls) || ls < 1 {
			t.Fatalf("LatScale(miss=%g) = %v outside [1, inf)", missBytes, ls)
		}
		if ls < prev {
			t.Fatalf("LatScale not monotone at miss=%g: %v after %v", missBytes, ls, prev)
		}
		if lim := 1 / (1 - m.MaxBWUtil()); ls > lim+1e-12 {
			t.Fatalf("LatScale %v above clamp %v", ls, lim)
		}
		prev = ls
	}
}

// busUtil reads the bus utilisation back out of core c's LatScale on
// the quad, whose singleton LLC domains leave only the bus term.
func busUtil(m *Model, c arch.CoreID) float64 { return 1 - 1/m.LatScale(c) }

// TestBusLoadIsAggregate: the bus queues on the sum of every core's
// traffic EWMA, a core's own included, so four cores streaming at the
// same rate load it four times as much as one core does, and every
// core sees the same bus.
func TestBusLoadIsAggregate(t *testing.T) {
	const rate = 1.0 // GB/s == bytes per ns
	load := func(cores int) *Model {
		m, err := NewModel(arch.QuadHMP(), Spec{Enabled: true, BusGBps: 32})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			for c := 0; c < cores; c++ {
				m.RecordSlice(arch.CoreID(c), 1e6, 0, rate*1e6)
			}
		}
		return m
	}
	one, four := load(1), load(4)
	u1 := busUtil(one, 0)
	if math.Abs(u1-rate/32) > 1e-6 {
		t.Fatalf("one core at %g GB/s: bus util %g, want %g", rate, u1, rate/32)
	}
	if r := busUtil(four, 0) / u1; math.Abs(r-4) > 1e-6 {
		t.Fatalf("four cores load the bus %gx one core, want 4x", r)
	}
	for c := arch.CoreID(1); c < 4; c++ {
		if one.LatScale(c) != one.LatScale(0) || four.LatScale(c) != four.LatScale(0) {
			t.Fatalf("core %d sees a different bus than core 0", c)
		}
	}
}

// TestRecordSliceDeterministic: the model is a pure function of the
// slice sequence — two models fed the same events agree bit-for-bit.
func TestRecordSliceDeterministic(t *testing.T) {
	build := func() *Model {
		m, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			c := arch.CoreID(i % 8)
			m.RecordSlice(c, int64(5e5+1e4*float64(i%7)), float64(100*i%9000), float64(1e5*(i%13)))
		}
		return m
	}
	a, b := build(), build()
	for c := arch.CoreID(0); c < 8; c++ {
		if a.MissScale(c) != b.MissScale(c) || a.LatScale(c) != b.LatScale(c) {
			t.Fatalf("core %d factors diverge between identical replays", c)
		}
	}
	if a.MaxPressure() != b.MaxPressure() || a.MaxBWUtilization() != b.MaxBWUtilization() {
		t.Fatal("telemetry gauges diverge between identical replays")
	}
	if a.MaxPressure() <= 0 || a.MaxBWUtilization() <= 0 {
		t.Fatalf("gauges not populated: pressure %v util %v", a.MaxPressure(), a.MaxBWUtilization())
	}
}

func TestRecordSliceIgnoresNonPositiveDuration(t *testing.T) {
	m, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	m.RecordSlice(0, 0, 1e6, 1e9)
	m.RecordSlice(0, -5, 1e6, 1e9)
	if m.MaxPressure() != 0 || m.MaxBWUtilization() != 0 {
		t.Fatal("non-positive duration mutated the EWMAs")
	}
}

// TestHotPathAllocFree: RecordSlice and the factor queries are on the
// machine's slice-end hot path and must not allocate.
func TestHotPathAllocFree(t *testing.T) {
	m, err := NewModel(arch.OctaBigLittle(), Spec{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		m.RecordSlice(2, 1e6, 4096, 1e6)
		sink += m.MissScale(3) + m.LatScale(3) + m.MaxPressure() + m.MaxBWUtilization()
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.0f/op, want 0 (sink %v)", allocs, sink)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
