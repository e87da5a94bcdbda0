package exp

import (
	"math"
	"testing"
)

func TestAblationPredictionVsOracle(t *testing.T) {
	res, err := AblationPredictionVsOracle(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	retained := res.Headline["geomean-retained"]
	// The predictor's ~10% error must not cost much placement quality:
	// prediction-driven SmartBalance should retain most of the oracle's
	// energy efficiency. (It can even exceed 1.0 on short runs because
	// the oracle optimises steady-state matrices, not the transient.)
	if retained < 0.80 {
		t.Fatalf("prediction retains only %.1f%% of oracle EE", 100*retained)
	}
	if retained > 1.3 {
		t.Fatalf("prediction 'beats' oracle by %.2fx; something is inconsistent", retained)
	}
}

func TestAblationObjectiveMode(t *testing.T) {
	res, err := AblationObjectiveMode(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	adv := res.Headline["geomean-global-advantage"]
	// The global-ratio objective must yield at least as good overall
	// IPS/W as the literal per-core sum (that is the reason for the
	// documented deviation).
	if adv < 1.0 {
		t.Fatalf("global objective worse than per-core sum: %.3f", adv)
	}
}

func TestAblationFixedPointSA(t *testing.T) {
	res, err := AblationFixedPointSA(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := res.Headline["geomean-quality-ratio"]
	if q < 0.93 || q > 1.07 {
		t.Fatalf("fixed-point quality ratio %.3f outside [0.93, 1.07]", q)
	}
}

func TestAblationEpochLength(t *testing.T) {
	res, err := AblationEpochLength(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("A4 rows = %d", res.Table.NumRows())
	}
	if res.Headline["best-relative-ee"] <= 0 {
		t.Fatal("A4 headline missing")
	}
}

func TestAblationMigrationPenalty(t *testing.T) {
	res, err := AblationMigrationPenalty(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	worst := res.Headline["worst-relative-ee"]
	// Even a 1ms cold-cache penalty must not destroy the gains at 60ms
	// epochs with few migrations.
	if worst < 0.7 {
		t.Fatalf("migration penalty collapses EE to %.1f%% of zero-cost", 100*worst)
	}
}

func TestAblationFeatureSparsity(t *testing.T) {
	res, err := AblationFeatureSparsity(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("A6 rows = %d", res.Table.NumRows())
	}
	full := res.Headline["full-feature-error-pct"]
	if full <= 0 || full > 20 {
		t.Fatalf("A6 full-feature error %.2f%% implausible", full)
	}
}

func TestAblationDVFSHeterogeneity(t *testing.T) {
	res, err := AblationDVFSHeterogeneity(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gain := res.Headline["geomean-gain"]
	// Frequency-only heterogeneity gives far less leverage than
	// architectural heterogeneity (the private L2 softens the memory
	// wall), but SmartBalance must not *lose* to vanilla. Full-scale
	// runs show ~1.15x; the 400ms quick subset is allowed to break even.
	if gain < 0.99 {
		t.Fatalf("A7 DVFS gain %.2fx; Sec. 3 generality claim lost", gain)
	}
}

func TestAblationThermal(t *testing.T) {
	res, err := AblationThermal(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("A8 rows = %d", res.Table.NumRows())
	}
	plain := res.Headline["plain-peak-c"]
	if plain <= 45 || plain > 120 {
		t.Fatalf("plain peak temperature %.1fC implausible", plain)
	}
	if res.Headline["coolest-peak-c"] > plain+1 {
		t.Fatal("thermal awareness made the die hotter across the sweep")
	}
}

func TestAblationBusContention(t *testing.T) {
	res, err := AblationBusContention(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("A9 rows = %d", res.Table.NumRows())
	}
	gain := res.Headline["min-gain-under-contention"]
	if gain < 1.2 {
		t.Fatalf("contention erased the gain: %.2fx", gain)
	}
}

// TestAblationContention pins A14's contract on the inputs of
// `smartbench -run A14 -quick -dur 1200 -threads 2 -seed 7`: with the
// contention model off, aware and blind placement are bit-identical
// (ratio exactly 1); on the antagonist mix, aware placement beats its
// blind twin by at least 5% in energy efficiency; and a rerun
// reproduces the table text and every headline bit for bit.
func TestAblationContention(t *testing.T) {
	opts := Options{Seed: 7, DurationNs: 1200e6, ThreadCounts: []int{2}, Quick: true}
	res, err := AblationContention(opts)
	if err != nil {
		t.Fatal(err)
	}
	if off, ok := res.Headline["aware-over-blind-model-off"]; !ok || math.Float64bits(off) != math.Float64bits(1) {
		t.Errorf("model-off aware/blind = %v (present %v), want exactly 1", off, ok)
	}
	if ant, ok := res.Headline["aware-over-blind-antagonist"]; !ok || ant < 1.05 {
		t.Errorf("antagonist aware/blind = %.3fx (present %v), want >= 1.05x", ant, ok)
	}
	again, err := AblationContention(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.Table.String(), res.Table.String(); got != want {
		t.Errorf("rerun table differs:\n%s\nvs\n%s", got, want)
	}
	if len(again.Headline) != len(res.Headline) {
		t.Errorf("rerun has %d headlines, first run %d", len(again.Headline), len(res.Headline))
	}
	for k, v := range res.Headline {
		if math.Float64bits(again.Headline[k]) != math.Float64bits(v) {
			t.Errorf("headline %q not reproduced: %v vs %v", k, v, again.Headline[k])
		}
	}
}

func TestAblationObjectiveGoals(t *testing.T) {
	res, err := AblationObjectiveGoals(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("A10 rows = %d", res.Table.NumRows())
	}
	// The throughput goal must buy throughput and cost efficiency.
	if res.Headline["throughput-gain"] < 1.1 {
		t.Fatalf("throughput goal gained only %.2fx IPS", res.Headline["throughput-gain"])
	}
	if res.Headline["ee-cost-factor"] < 1.1 {
		t.Fatalf("throughput goal cost only %.2fx IPS/W; goals indistinct", res.Headline["ee-cost-factor"])
	}
}

func TestAblationFairness(t *testing.T) {
	res, err := AblationFairness(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 { // Mix5's two benchmarks
		t.Fatalf("A11 rows = %d", res.Table.NumRows())
	}
	worst := res.Headline["worst-smart-fairness"]
	// The index must be computed and sane; the *finding* is that the
	// EE objective trades some intra-benchmark fairness (documented in
	// EXPERIMENTS.md), so no high bar is asserted here — only that no
	// worker is fully starved (index well above 1/n = 0.25 for n=4).
	if worst <= 0.26 || worst > 1.0001 {
		t.Fatalf("worst fairness %.3f outside plausible range", worst)
	}
}

func TestAblationFaultRobustness(t *testing.T) {
	res, err := AblationFaultRobustness(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("A13 rows = %d", res.Table.NumRows())
	}
	t.Logf("clean=%.3f min=%.3f blackout=%.3f",
		res.Headline["clean-gain"], res.Headline["min-gain-under-faults"],
		res.Headline["gain-at-full-dropout"])
	if res.Headline["clean-gain"] < 1.1 {
		t.Fatalf("clean gain collapsed: %.2fx", res.Headline["clean-gain"])
	}
	// The degradation contract: faults erode the gain but hardened
	// SmartBalance never does worse than the counter-agnostic vanilla
	// baseline — under total counter dropout it skips rebalancing and
	// lands exactly on it.
	if g := res.Headline["gain-at-full-dropout"]; g < 0.999 {
		t.Fatalf("blackout dropped SmartBalance below vanilla: %.3fx", g)
	}
	if g := res.Headline["min-gain-under-faults"]; g < 0.99 {
		t.Fatalf("a fault level dropped SmartBalance below vanilla: %.3fx", g)
	}
	// Determinism: a second run reproduces the headline bit-for-bit.
	res2, err := AblationFaultRobustness(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res.Headline {
		if res2.Headline[k] != v { //sbvet:allow floateq(determinism check: reruns must be bit-identical)
			t.Fatalf("headline %q not deterministic: %v vs %v", k, v, res2.Headline[k])
		}
	}
}

func TestAblationSensorNoise(t *testing.T) {
	res, err := AblationSensorNoise(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("A12 rows = %d", res.Table.NumRows())
	}
	if res.Headline["min-gain-under-noise"] < 1.1 {
		t.Fatalf("sensor noise erased the gain: %.2fx", res.Headline["min-gain-under-noise"])
	}
}
