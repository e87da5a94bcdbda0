package smartbalance

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its artefact
// through the same runner the smartbench tool uses and reports the
// headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Durations are trimmed relative to
// `smartbench -full` so the whole suite completes in minutes; the
// shapes (who wins, by what factor) are unchanged.
//
// The BenchmarkReplicate pair additionally times the sweep engine
// itself: the same seed replication on one worker versus the full
// GOMAXPROCS pool (TestReplicateParallelMatchesSerial in internal/exp
// pins the two outputs byte-identical).

import (
	"testing"
)

// benchOpts returns experiment options sized for benchmarking.
func benchOpts() ExperimentOptions {
	o := DefaultExperimentOptions()
	o.DurationNs = 600e6
	o.ThreadCounts = []int{2, 4}
	o.Quick = true
	return o
}

func runArtefact(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	opts := benchOpts()
	var last *ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		for _, k := range metricKeys {
			if v, ok := last.Headline[k]; ok {
				b.ReportMetric(v, k)
			}
		}
	}
}

// BenchmarkTable2CoreConfigs regenerates Table 2 (core configuration
// parameters plus the power-model calibration cross-check).
func BenchmarkTable2CoreConfigs(b *testing.B) {
	runArtefact(b, "T2", "calibration-rel-error")
}

// BenchmarkTable3Mixes regenerates Table 3 (the PARSEC mixes).
func BenchmarkTable3Mixes(b *testing.B) {
	runArtefact(b, "T3", "mixes")
}

// BenchmarkTable4Predictor regenerates Table 4 (the trained predictor
// coefficient matrix Θ).
func BenchmarkTable4Predictor(b *testing.B) {
	runArtefact(b, "T4", "worst-pair-train-mape-pct")
}

// BenchmarkFigure4aIMB regenerates Fig. 4(a): energy-efficiency gain
// over vanilla Linux on the interactive microbenchmarks (paper: ~1.50x
// average).
func BenchmarkFigure4aIMB(b *testing.B) {
	runArtefact(b, "F4a", "geomean-gain", "min-gain")
}

// BenchmarkFigure4bPARSEC regenerates Fig. 4(b): energy-efficiency gain
// over vanilla Linux on PARSEC benchmarks and mixes (paper: ~1.52x
// average).
func BenchmarkFigure4bPARSEC(b *testing.B) {
	runArtefact(b, "F4b", "geomean-gain", "min-gain")
}

// BenchmarkFigure5GTS regenerates Fig. 5: normalized energy efficiency
// versus ARM GTS on the octa-core big.LITTLE (paper: >1.20x).
func BenchmarkFigure5GTS(b *testing.B) {
	runArtefact(b, "F5", "geomean-gain-vs-gts")
}

// BenchmarkFigure6Prediction regenerates Fig. 6: performance and power
// prediction error (paper: 4.2% and 5%).
func BenchmarkFigure6Prediction(b *testing.B) {
	runArtefact(b, "F6", "mean-perf-error-pct", "mean-power-error-pct")
}

// BenchmarkFigure7Overhead regenerates Fig. 7: per-phase overhead and
// scalability (paper: <1% of the 60ms epoch for 2-8 cores).
func BenchmarkFigure7Overhead(b *testing.B) {
	runArtefact(b, "F7", "quad-core-epoch-fraction", "max-epoch-fraction")
}

// BenchmarkFigure8Anneal regenerates Fig. 8: iteration budgets and
// distance to the known optimum.
func BenchmarkFigure8Anneal(b *testing.B) {
	runArtefact(b, "F8", "worst-distance-pct")
}

// BenchmarkAblationPredictionVsOracle (A1) measures how much of the
// oracle-matrix energy efficiency prediction-driven SmartBalance
// retains (DESIGN.md ablation: prediction vs sampling).
func BenchmarkAblationPredictionVsOracle(b *testing.B) {
	runArtefact(b, "A1", "geomean-retained")
}

// BenchmarkAblationObjectiveMode (A2) compares the default global
// IPS/W objective with the literal Eq. (11) per-core ratio sum.
func BenchmarkAblationObjectiveMode(b *testing.B) {
	runArtefact(b, "A2", "geomean-global-advantage")
}

// BenchmarkAblationFixedPointSA (A3) quantifies the quality cost of
// Algorithm 1's fixed-point rand/e^x acceptance path.
func BenchmarkAblationFixedPointSA(b *testing.B) {
	runArtefact(b, "A3", "geomean-quality-ratio")
}

// BenchmarkAblationEpochLength (A4) sweeps the sense-predict-balance
// epoch length.
func BenchmarkAblationEpochLength(b *testing.B) {
	runArtefact(b, "A4", "best-relative-ee")
}

// BenchmarkAblationMigrationPenalty (A5) sweeps the cold-cache
// migration cost.
func BenchmarkAblationMigrationPenalty(b *testing.B) {
	runArtefact(b, "A5", "worst-relative-ee")
}

// BenchmarkAblationFeatureSparsity (A6) retrains the predictor with
// counter groups removed (the Sec. 6.4 sparse-sensing question).
func BenchmarkAblationFeatureSparsity(b *testing.B) {
	runArtefact(b, "A6", "full-feature-error-pct")
}

// BenchmarkAblationDVFS (A7) runs SmartBalance on a platform whose
// heterogeneity is purely DVFS operating points (Sec. 3 generality).
func BenchmarkAblationDVFS(b *testing.B) {
	runArtefact(b, "A7", "geomean-gain")
}

// BenchmarkEndToEndQuadHMP measures raw simulation throughput of the
// full stack (machine + kernel + SmartBalance) — simulated nanoseconds
// per host operation, for sizing longer experiments.
func BenchmarkEndToEndQuadHMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plat := QuadHMP()
		bal, err := TrainSmartBalance(plat.Types, 1)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := NewSystem(plat, bal)
		if err != nil {
			b.Fatal(err)
		}
		specs, err := Mix("Mix1", 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.SpawnAll(specs); err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(200e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThermal (A8) sweeps the thermal-aware derating
// threshold (peak die temperature vs energy-efficiency cost).
func BenchmarkAblationThermal(b *testing.B) {
	runArtefact(b, "A8", "plain-peak-c", "coolest-peak-c")
}

// BenchmarkAblationBusContention (A9) checks the balancing gains
// survive shared-memory-bus contention (Section 5's platform topology).
func BenchmarkAblationBusContention(b *testing.B) {
	runArtefact(b, "A9", "min-gain-under-contention")
}

// BenchmarkTable1RelatedWork regenerates Table 1 (related-work summary
// with programmatic verification of the implemented rows).
func BenchmarkTable1RelatedWork(b *testing.B) {
	runArtefact(b, "T1", "structural-checks")
}

// BenchmarkAblationObjectiveGoals (A10) compares the energy-efficiency
// and throughput-first optimisation goals (Sec. 4.3).
func BenchmarkAblationObjectiveGoals(b *testing.B) {
	runArtefact(b, "A10", "throughput-gain", "ee-cost-factor")
}

// BenchmarkAblationFairness (A11) measures intra-benchmark fairness
// (Jain's index over worker progress) under vanilla and SmartBalance.
func BenchmarkAblationFairness(b *testing.B) {
	runArtefact(b, "A11", "worst-smart-fairness")
}

// BenchmarkAblationSensorNoise (A12) sweeps power-sensor noise — the
// robustness of a sensing-driven balancer to sensor quality.
func BenchmarkAblationSensorNoise(b *testing.B) {
	runArtefact(b, "A12", "min-gain-under-noise")
}

// BenchmarkAblationFaultRobustness (A13) sweeps injected sensing and
// migration faults from clean to a total counter blackout — the
// graceful-degradation contract of the hardened loop (DESIGN.md §9).
func BenchmarkAblationFaultRobustness(b *testing.B) {
	runArtefact(b, "A13", "gain-at-full-dropout", "min-gain-under-faults")
}

// TestTelemetryDisabledZeroAlloc pins the telemetry layer's
// disabled-cost contract: a system without EnableTelemetry holds a nil
// collector, and the exact per-epoch call sequence the controller and
// kernel adapter issue against it must not allocate. Every attr-built
// span in the hot path is additionally guarded by Enabled(), so the
// variadic slices below are the worst case, not the common one.
func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	var tel *TelemetryCollector
	if tel.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tel.BeginEpoch(1, 60e6)
		tel.Counter("smartbalance_epochs_total").Inc()
		tel.Counter("smartbalance_migrations_total").Add(3)
		tel.Gauge("smartbalance_degraded_mode").Set(0)
		tel.Gauge("smartbalance_epoch_ee").Set(1e9)
		tel.Histogram("smartbalance_epoch_ee_dist", nil).Observe(1e9)
		tel.Span("sense", 60e6, 0)
		tel.Anomaly(60e6, "reason", "detail")
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %.1f times per epoch, want 0", allocs)
	}
}

// BenchmarkEpochTelemetryEnabled sizes the enabled-path cost of the
// same per-epoch sequence, for comparison against the zero above.
func BenchmarkEpochTelemetryEnabled(b *testing.B) {
	tel := NewTelemetryCollector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tel.BeginEpoch(i+1, int64(i)*60e6)
		tel.Counter("smartbalance_epochs_total").Inc()
		tel.Gauge("smartbalance_epoch_ee").Set(1e9)
		tel.Span("sense", int64(i)*60e6, 0)
	}
}

// benchReplicate replicates one artefact over a small seed set with the
// given sweep worker-pool size — the serial/parallel pair below
// measures the engine's wall-clock win while the equivalence tests in
// internal/exp pin the outputs byte-identical.
func benchReplicate(b *testing.B, workers int) {
	b.Helper()
	opts := benchOpts()
	opts.Workers = workers
	seeds := []uint64{1, 2, 3, 4}
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateExperiment("F6", opts, seeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicateSerial replicates F6 on a single sweep worker.
func BenchmarkReplicateSerial(b *testing.B) {
	benchReplicate(b, 1)
}

// BenchmarkReplicateParallel replicates F6 on the full worker pool
// (GOMAXPROCS).
func BenchmarkReplicateParallel(b *testing.B) {
	benchReplicate(b, 0)
}
