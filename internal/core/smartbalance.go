package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/contention"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
	"smartbalance/internal/perfmodel"
	"smartbalance/internal/telemetry"
)

// Config parameterises the SmartBalance controller.
type Config struct {
	// Anneal configures the Algorithm 1 optimiser. MaxIter <= 0 selects
	// the scaled budget of Fig. 8(a) automatically.
	Anneal AnnealConfig
	// Weights are the per-core objective weights ω_j (nil = all ones).
	Weights []float64
	// Objective selects the optimisation goal (zero value: overall
	// IPS/Watt; see ObjectiveMode).
	Objective ObjectiveMode
	// Clock supplies the time source for per-phase overhead
	// measurement. nil selects RealClock (host time) — appropriate at
	// the cmd/ boundary; deterministic runs inject a FakeClock.
	Clock Clock
}

// Graceful-degradation constants (DESIGN.md §9).
const (
	// degradeDecay is the per-epoch multiplicative confidence decay
	// applied to a degraded thread's last-known-good measurement: a
	// measurement aged a epochs carries confidence degradeDecay^a.
	degradeDecay = 0.5
	// minConfidence floors the decayed confidence so a long-degraded
	// thread keeps a small voice instead of vanishing from the
	// optimisation.
	minConfidence = 0.1
	// recoveryEpochs is the hysteresis width: after a majority-degraded
	// epoch forces a skipped rebalance, this many consecutive clean
	// epochs must pass before optimisation re-arms.
	recoveryEpochs = 2
)

// Health reports the controller's exposure to sensing faults — the
// observable side of the degradation contract, consumed by the
// fault-robustness ablation and by tests.
type Health struct {
	// DegradedThreadEpochs counts thread-epochs served from a decayed
	// last-known-good fallback because the fresh sample was invalid or
	// missing while the thread demonstrably ran.
	DegradedThreadEpochs int
	// UnmeasurableThreadEpochs counts thread-epochs where a degraded
	// thread had no last-known-good measurement at all and was left in
	// place.
	UnmeasurableThreadEpochs int
	// SkippedEpochs counts rebalances skipped because a majority of
	// sensed threads were degraded.
	SkippedEpochs int
	// RecoveryHolds counts clean epochs spent waiting out the
	// hysteresis after a majority-degraded epoch.
	RecoveryHolds int
	// DegradedMode reports whether the controller is currently holding
	// placement (inside a degraded episode or its recovery window).
	DegradedMode bool
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{Anneal: DefaultAnnealConfig()}
}

// PhaseOverhead accumulates the wall-clock cost of each SmartBalance
// phase across epochs — the measurement behind the paper's Fig. 7.
type PhaseOverhead struct {
	Sense    time.Duration
	Predict  time.Duration
	Optimize time.Duration
	Migrate  time.Duration
	// Epochs is the number of balancer invocations measured; Migrations
	// the number of thread moves requested.
	Epochs     int
	Migrations int
}

// Total returns the summed per-epoch overhead.
func (o *PhaseOverhead) Total() time.Duration {
	return o.Sense + o.Predict + o.Optimize + o.Migrate
}

// PerEpoch returns the mean overhead per balancer invocation.
func (o *PhaseOverhead) PerEpoch() time.Duration {
	if o.Epochs == 0 {
		return 0
	}
	return o.Total() / time.Duration(o.Epochs)
}

// SmartBalance is the closed-loop balancer: a kernel.Balancer whose
// Rebalance runs the sense, estimate/predict, optimise, and migrate
// phases at every epoch boundary (Fig. 2).
type SmartBalance struct {
	pred  *Predictor
	cfg   Config
	clock Clock

	// lastMeasure retains each thread's most recent valid measurement
	// so threads that slept through an epoch keep informed predictions.
	lastMeasure map[kernel.ThreadID]Measurement
	// lastGood records the epoch of each thread's most recent fresh
	// (SenseOK) measurement, the age base for confidence decay.
	lastGood map[kernel.ThreadID]int

	health Health
	// cleanStreak counts consecutive non-majority-degraded epochs while
	// in degraded mode (the recovery hysteresis).
	cleanStreak int

	overhead PhaseOverhead
	epochs   int

	// tel, when non-nil, receives per-phase spans, metrics, and anomaly
	// triggers. The nil collector is free on the hot path; attribute
	// construction is additionally guarded by Enabled() because variadic
	// slices allocate at the caller.
	tel *telemetry.Collector
	// prevEE is the previous epoch's measured energy efficiency
	// (instructions per joule), the baseline for the negative-EE-gain
	// anomaly trigger.
	prevEE float64

	// Epoch-path scratch, reused across epochs so a steady-state
	// Rebalance allocates nothing (hot-path purity contract, DESIGN.md
	// §11). prob's matrices are windows into the flat ipsBuf/powBuf
	// backing arrays; spanAttrs backs every telemetry span's attribute
	// list, spread into Span which copies it into its arena.
	ann       Annealer
	optTasks  []*kernel.Task
	meas      []Measurement
	initial   Allocation
	prob      Problem
	ipsBuf    []float64
	powBuf    []float64
	ipsByType []float64
	powByType []float64
	spanAttrs [8]telemetry.Attr

	// cont, when non-nil, is the machine-side LLC-domain model the
	// contention-aware objective reads its topology from (SetContention).
	// The static per-domain arrays are snapshotted there; contTerm's
	// per-thread appetite vectors are epoch scratch, re-estimated from
	// sensing every Rebalance.
	cont         *contention.Model
	contDomainOf []int32
	contDomLLC   []float64
	contDomBW    []float64
	contMaxWsKB  float64
	contTerm     ContentionTerm
	contCurWs    []float64
	contCurBw    []float64
	contCoreWs   []float64
	contCoreBw   []float64
}

// New constructs a SmartBalance controller around a trained predictor.
func New(pred *Predictor, cfg Config) (*SmartBalance, error) {
	if pred == nil {
		return nil, errors.New("core: nil predictor")
	}
	if !pred.Trained() {
		return nil, errors.New("core: predictor is not fully trained")
	}
	if err := cfg.Anneal.Validate(); cfg.Anneal.MaxIter > 0 && err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = RealClock()
	}
	return &SmartBalance{
		pred:        pred,
		cfg:         cfg,
		clock:       clk,
		lastMeasure: make(map[kernel.ThreadID]Measurement),
		lastGood:    make(map[kernel.ThreadID]int),
	}, nil
}

// Name implements kernel.Balancer.
func (s *SmartBalance) Name() string { return "smartbalance" }

// SetWeights replaces the per-core objective weights ω_j (Eq. 11)
// before the next epoch — the tuning knob the paper describes for
// giving "preference to certain cores or core types" (used, e.g., by
// the thermal-aware wrapper). nil restores uniform weights.
func (s *SmartBalance) SetWeights(w []float64) { s.cfg.Weights = w }

// Overhead returns the accumulated per-phase wall-clock costs.
func (s *SmartBalance) Overhead() PhaseOverhead { return s.overhead }

// Health returns the controller's accumulated degradation telemetry.
func (s *SmartBalance) Health() Health { return s.health }

// SetContention couples the controller to the machine's LLC-domain
// model: from the next epoch on, the optimiser's objective carries the
// shared-resource interference term (the "aware" arm of the A14
// ablation), with per-thread cache and bandwidth appetites estimated
// purely from sensed counters. nil — or never calling this — keeps the
// contention-blind objective, bit-for-bit. The domain topology is
// snapshotted here; it is static for the life of a model.
func (s *SmartBalance) SetContention(m *contention.Model) {
	s.cont = m
	if m == nil {
		return
	}
	n := m.NumCores()
	nd := m.NumDomains()
	s.contDomainOf = make([]int32, n)
	for c := 0; c < n; c++ {
		s.contDomainOf[c] = int32(m.DomainOf(arch.CoreID(c)))
	}
	s.contDomLLC = make([]float64, nd)
	s.contDomBW = make([]float64, nd)
	maxLLC := 0.0
	for d := 0; d < nd; d++ {
		s.contDomLLC[d] = m.DomainLLCKB(d)
		s.contDomBW[d] = m.DomainBWGBps(d)
		if s.contDomLLC[d] > maxLLC {
			maxLLC = s.contDomLLC[d]
		}
	}
	// Working-set estimates beyond (1+cap) x the largest LLC cannot
	// change any domain's clamped pressure, so the inversion saturates
	// there.
	s.contMaxWsKB = (1 + m.PressureCap()) * maxLLC
}

// contMissSlopeToIPS converts the machine model's miss-rate slope into
// an IPS-level penalty slope, and contMaxBWUtilIPS bounds the queueing
// term the optimiser sees. The machine applies its slope to the
// conditional L2 miss rate — a quantity that caps at 1 and is only one
// term of CPI — so the IPS-level interference is several times smaller
// than the miss-rate inflation. Reusing the raw knobs makes moving off
// a pressured cluster look like a near-3x throughput win, which the
// annealer pays real watts to chase (spreading over clusters that
// gating should empty). Empirically on the A14 mixes ~1/4 of the
// machine slope, with the queueing term clamped at 2:1, tracks the
// realised degradation.
const (
	contMissSlopeToIPS = 2.0
	contMaxBWUtilIPS   = 0.9
)

// contMinGain is the plan-acceptance hysteresis for the contention-aware
// controller: a new allocation is applied only when its predicted
// objective beats the incumbent placement's by this relative margin.
// The interference term makes near-tied plans common (several
// placements isolate the same antagonist equally well) while the
// annealer's per-epoch seed variation breaks those ties differently
// each epoch; with zero threshold the controller oscillates between
// equivalent optima and pays the cold-cache migration debt every epoch.
// Blind controllers keep the zero-threshold paper behaviour — the gate
// is only active when a contention model is attached, so disabled-model
// runs stay byte-identical.
const contMinGain = 0.02

// fillContentionTerm assembles the optimiser-side term for this epoch's
// measurements: static topology by reference, per-thread appetites
// estimated from sensing (working set by inverting the L1D capacity
// curve on the source type's cache; bandwidth as measured traffic
// scaled by utilisation).
func (s *SmartBalance) fillContentionTerm(t *ContentionTerm, plat *arch.Platform, meas []Measurement) {
	t.DomainOf = s.contDomainOf
	t.DomLLCKB = s.contDomLLC
	t.DomBWGBps = s.contDomBW
	// The machine's slope inflates the *conditional L2 miss rate*; only a
	// fraction of that reaches IPS (a miss is one term of CPI, and the
	// rate caps at 1). An IPS-level penalty reusing the raw slope
	// overstates interference several-fold, and an overstated term makes
	// the optimiser trade real watts for imaginary throughput (spreading
	// across clusters that gating should empty). Temper both knobs to
	// IPS scale.
	t.MissSlope = contMissSlopeToIPS * s.cont.MissSlope()
	t.PressureCap = s.cont.PressureCap()
	t.MaxBWUtil = s.cont.MaxBWUtil()
	if t.MaxBWUtil > contMaxBWUtilIPS {
		t.MaxBWUtil = contMaxBWUtilIPS
	}
	t.WsKB = growFloats(t.WsKB, len(meas))
	t.BwGBps = growFloats(t.BwGBps, len(meas))
	for i := range meas {
		mm := &meas[i]
		ct := &plat.Types[mm.SrcType]
		// Working set from the L2 capacity curve: the sensed conditional
		// LLC rate times the L1D rate is the absolute L2-to-memory rate,
		// whose inversion stays well-conditioned far beyond the cache
		// size (the L1D curve alone saturates a few multiples past L1,
		// flattening every appetite to the clamp and erasing the
		// placement gradient). The sensed rate embeds the co-runner
		// inflation the machine applied on the thread's current core;
		// dividing by the model's own MissScale recovers the clean
		// appetite, so estimates do not balloon under the very pressure
		// the balancer is trying to relieve.
		abs2 := mm.MissLLC * mm.MissL1D
		bw := mm.MemBWGBs
		if scale := s.cont.MissScale(mm.Core); scale > 1 {
			abs2 /= scale
			bw /= scale
		}
		t.WsKB[i] = perfmodel.EstimateWorkingSetKB(abs2, float64(ct.L2KB), perfmodel.L1DMissCap, s.contMaxWsKB)
		t.BwGBps[i] = bw * mm.Util
	}
}

// normalizeContentionIPS rescales each thread's predicted-IPS row by
// the inverse of the penalty its *current* core carries under the
// incumbent co-runner set (domain appetite minus the core's own —
// the same self-exclusion the machine and the evaluator apply).
// Sensed counters already embed the current contention (the machine
// degraded the slices that produced them), so applying the candidate
// penalty to raw predictions would double-count it; after this
// normalization the penalized objective reproduces the sensed
// throughput exactly at the incumbent placement, and the term scores
// only the *change* a move makes to co-location. Threads on
// unpressured cores (penalty 1) are untouched bit-for-bit.
func (s *SmartBalance) normalizeContentionIPS(t *ContentionTerm, ips [][]float64, meas []Measurement) {
	nd := len(t.DomLLCKB)
	n := len(t.DomainOf)
	s.contCurWs = growFloats(s.contCurWs, nd)
	s.contCurBw = growFloats(s.contCurBw, nd)
	for d := 0; d < nd; d++ {
		s.contCurWs[d] = 0
		s.contCurBw[d] = 0
	}
	s.contCoreWs = growFloats(s.contCoreWs, n)
	s.contCoreBw = growFloats(s.contCoreBw, n)
	for c := 0; c < n; c++ {
		s.contCoreWs[c] = 0
		s.contCoreBw[c] = 0
	}
	for i := range meas {
		c := meas[i].Core
		d := t.DomainOf[c]
		s.contCurWs[d] += t.WsKB[i]
		s.contCurBw[d] += t.BwGBps[i]
		s.contCoreWs[c] += t.WsKB[i]
		s.contCoreBw[c] += t.BwGBps[i]
	}
	for i := range meas {
		c := meas[i].Core
		d := int(t.DomainOf[c])
		pen := t.penalty(d, s.contCurWs[d]-s.contCoreWs[c], s.contCurBw[d]-s.contCoreBw[c])
		if pen >= 1 {
			continue
		}
		inv := 1 / pen
		row := ips[i]
		for j := range row {
			row[j] *= inv
		}
	}
}

// SetTelemetry installs (or, with nil, removes) the telemetry
// collector the controller reports into: per-phase spans with
// structured attributes, health gauges, and the flight-recorder
// anomaly triggers (majority-degraded epoch, negative EE gain, refused
// migration burst).
func (s *SmartBalance) SetTelemetry(c *telemetry.Collector) { s.tel = c }

// refusedBurst is the per-epoch refused-migration count at which the
// controller flags an anomaly: a couple of refusals are routine
// (tasks exit between decide and migrate), a burst means the plan and
// the kernel disagree about the world.
const refusedBurst = 3

// eeBuckets are the fixed upper bounds of the per-epoch
// energy-efficiency histogram, spanning the instructions-per-joule
// range the simulated platforms produce. Fixed at compile time so
// every run and every sweep worker shares one bucket layout.
var eeBuckets = []float64{1e8, 3e8, 1e9, 3e9, 1e10, 3e10, 1e11}

// epochEE computes the finished epoch's measured energy efficiency
// (total instructions per total joule, Eq. 2) from the per-core
// samples; 0 when no energy was metered.
func epochEE(cores []hpc.CoreEpochSample) float64 {
	var instr float64
	var energy float64
	for i := range cores {
		instr += float64(cores[i].Agg.Instructions)
		energy += cores[i].Agg.EnergyJ + cores[i].SleepEnergyJ
	}
	if energy <= 0 {
		return 0
	}
	return instr / energy
}

// confidence returns the exponentially age-decayed trust in a thread's
// last-known-good measurement: degradeDecay^age floored at
// minConfidence. A thread with no fresh measurement on record decays
// from epoch zero.
func (s *SmartBalance) confidence(id kernel.ThreadID) float64 {
	age := s.epochs - s.lastGood[id]
	if age < 1 {
		age = 1
	}
	c := 1.0
	for i := 0; i < age; i++ {
		c *= degradeDecay
		if c <= minConfidence {
			return minConfidence
		}
	}
	if c < minConfidence {
		return minConfidence
	}
	return c
}

// Rebalance implements kernel.Balancer: one full
// sense-predict-balance iteration.
//
//sbvet:hotpath
func (s *SmartBalance) Rebalance(k *kernel.Kernel, now kernel.Time,
	threads []hpc.ThreadSample, cores []hpc.CoreEpochSample) {
	plat := k.Platform()
	if plat.NumTypes() != s.pred.NumTypes() {
		// Mis-paired predictor/platform: refuse to act rather than act
		// on nonsense predictions.
		return
	}
	s.epochs++
	s.overhead.Epochs++
	epochNs := k.Config().EpochNs

	if s.tel.Enabled() {
		// The kernel adapter announces the same boundary from the
		// TraceEpoch event; BeginEpoch is idempotent so whichever runs
		// first wins and the other is a no-op.
		s.tel.BeginEpoch(s.epochs, now)
		s.tel.Counter("smartbalance_epochs_total").Inc()
		ee := epochEE(cores)
		s.tel.Gauge("smartbalance_epoch_ee").Set(ee)
		s.tel.Histogram("smartbalance_epoch_ee_dist", eeBuckets).Observe(ee)
		if s.prevEE > 0 && ee < 0.75*s.prevEE {
			s.tel.Anomaly(now, telemetry.AnomalyNegativeEEGain, //sbvet:allow hotpath(anomaly detail formats only when the flight recorder triggers)
				fmt.Sprintf("epoch ee %.4g fell below 0.75 x previous %.4g", ee, s.prevEE))
		}
		s.prevEE = ee
		if s.cont != nil {
			s.tel.Gauge("smartbalance_contention_pressure_max").Set(s.cont.MaxPressure())
			s.tel.Gauge("smartbalance_contention_bw_util_max").Set(s.cont.MaxBWUtilization())
		}
	}

	// ---- Phase 1: sensing & measurement (Section 4.1, Eq. 4-7). ----
	t0 := s.clock.Now()
	tasks := k.ActiveTasks()
	if len(tasks) == 0 {
		s.overhead.Sense += sinceOn(s.clock, t0)
		return
	}
	optTasks := s.optTasks[:0]
	meas := s.meas[:0]
	sensed, degraded := 0, 0
	for _, task := range tasks {
		if task.IsKernelThread() {
			// Section 5.1: the user-level threads dominate, so kernel
			// threads are left where the scheduler put them.
			continue
		}
		util := task.Utilization(epochNs)
		m, status := SenseChecked(hpc.FindThread(threads, int(task.ID)), util, plat)
		if status == SenseNoSample && task.EpochRunNs() > 0 {
			// The scheduler accounted run time this epoch, so counters
			// were recorded — a missing/empty sample means the sensing
			// path lost them (dropout or zero-wipe), not that the
			// thread slept. Impossible on clean sensing.
			status = SenseInvalid
		}
		sensed++
		switch status {
		case SenseOK:
			s.lastMeasure[task.ID] = m
			s.lastGood[task.ID] = s.epochs
		case SenseNoSample:
			// The thread slept throughout: fall back to its last known
			// characterisation (still accurate — nothing ran to change
			// it) with fresh utilisation.
			last, seen := s.lastMeasure[task.ID]
			if !seen {
				// Never measured (e.g. spawned at the very end of the
				// epoch): leave it where it is this round.
				continue
			}
			m = last
			m.Util = util
			s.lastMeasure[task.ID] = m
		case SenseInvalid:
			// Sensing fault: fall back to the last-known-good
			// measurement, discounted by how stale it is (DESIGN.md
			// §9) so a long-degraded thread sways placement less.
			degraded++
			last, seen := s.lastMeasure[task.ID]
			if !seen {
				s.health.UnmeasurableThreadEpochs++
				continue
			}
			s.health.DegradedThreadEpochs++
			m = last
			m.Util = util * s.confidence(task.ID)
		}
		optTasks = append(optTasks, task) //sbvet:allow hotpath(controller-owned scratch; capacity reaches the live task count and is reused every epoch)
		meas = append(meas, m)            //sbvet:allow hotpath(controller-owned scratch; capacity reaches the live task count and is reused every epoch)
	}
	s.optTasks, s.meas = optTasks, meas
	// Drop measurements of exited threads.
	if len(s.lastMeasure) > 2*len(tasks)+16 {
		alive := make(map[kernel.ThreadID]bool, len(tasks)) //sbvet:allow hotpath(exited-thread reclamation runs only when the retained map outgrows the live set by 2x)
		for _, task := range tasks {
			alive[task.ID] = true
		}
		for id := range s.lastMeasure { //sbvet:allow hotpath(reclamation branch; bounded by the retained-measurement map and entered rarely)
			if !alive[id] {
				delete(s.lastMeasure, id)
				delete(s.lastGood, id)
			}
		}
	}
	s.overhead.Sense += sinceOn(s.clock, t0)
	if s.tel.Enabled() {
		s.spanAttrs[0] = telemetry.Int("tasks", int64(len(tasks)))
		s.spanAttrs[1] = telemetry.Int("sensed", int64(sensed))
		s.spanAttrs[2] = telemetry.Int("degraded", int64(degraded))
		s.spanAttrs[3] = telemetry.Bool("degraded_mode", s.health.DegradedMode)
		s.tel.Span(telemetry.PhaseSense, now, 0, s.spanAttrs[:4]...)
		s.tel.Gauge("smartbalance_health_degraded_thread_epochs").Set(float64(s.health.DegradedThreadEpochs))
		s.tel.Gauge("smartbalance_health_unmeasurable_thread_epochs").Set(float64(s.health.UnmeasurableThreadEpochs))
	}

	// Majority-degraded epoch: the sensed picture is mostly fiction, so
	// optimising over it would thrash placements. Keep the current
	// allocation and (re-)enter degraded mode; hysteresis below keeps
	// it held until recoveryEpochs consecutive clean epochs pass.
	if sensed > 0 && 2*degraded > sensed {
		s.health.SkippedEpochs++
		s.health.DegradedMode = true
		s.cleanStreak = 0
		if s.tel.Enabled() {
			s.tel.Counter("smartbalance_skipped_epochs_total").Inc()
			s.tel.Gauge("smartbalance_degraded_mode").Set(1)
			s.tel.Anomaly(now, telemetry.AnomalyDegradedEpoch, //sbvet:allow hotpath(anomaly detail formats only when the flight recorder triggers)
				fmt.Sprintf("%d of %d sensed threads degraded; holding placement", degraded, sensed))
		}
		return
	}
	if s.health.DegradedMode {
		s.cleanStreak++
		if s.cleanStreak < recoveryEpochs {
			s.health.RecoveryHolds++
			if s.tel.Enabled() {
				s.tel.Counter("smartbalance_recovery_holds_total").Inc()
			}
			return
		}
		s.health.DegradedMode = false
		s.cleanStreak = 0
	}
	s.tel.Gauge("smartbalance_degraded_mode").Set(0)
	if len(optTasks) == 0 {
		return
	}

	// ---- Phase 2: prediction — fill S(k) and P(k) (Section 4.2.2). ----
	t1 := s.clock.Now()
	prob, err := s.buildProblem(plat, k, meas)
	if err != nil {
		s.overhead.Predict += sinceOn(s.clock, t1)
		return
	}
	prob.Allowed = affinityMatrix(optTasks, plat.NumCores())
	s.overhead.Predict += sinceOn(s.clock, t1)
	if s.tel.Enabled() {
		s.spanAttrs[0] = telemetry.Int("threads", int64(len(optTasks)))
		s.spanAttrs[1] = telemetry.Int("types", int64(plat.NumTypes()))
		s.tel.Span(telemetry.PhasePredict, now, 0, s.spanAttrs[:2]...)
	}

	// ---- Phase 3: balance — Algorithm 1 over allocations. ----
	t2 := s.clock.Now()
	s.initial = growAlloc(s.initial, len(optTasks))
	for i, task := range optTasks {
		s.initial[i] = task.Core()
	}
	acfg := s.cfg.Anneal
	if acfg.MaxIter <= 0 {
		acfg = DefaultAnnealConfig()
		acfg.MaxIter = ScaledMaxIter(plat.NumCores(), len(optTasks))
	}
	acfg.Seed ^= uint64(s.epochs) * 0x9E3779B97F4A7C15
	result, err := s.ann.Run(prob, s.initial, acfg)
	s.overhead.Optimize += sinceOn(s.clock, t2)
	if err != nil {
		return
	}
	if s.tel.Enabled() {
		s.spanAttrs[0] = telemetry.F64("objective", result.Objective)
		s.spanAttrs[1] = telemetry.Int("iterations", int64(result.Iterations))
		s.spanAttrs[2] = telemetry.Int("accepted", int64(result.Accepted))
		s.tel.Span(telemetry.PhaseDecide, now, 0, s.spanAttrs[:3]...)
	}

	// Plan-acceptance hysteresis (aware only): hold the incumbent
	// placement unless the annealed plan clears a relative margin over
	// it. See contMinGain for why ties oscillate without this.
	if s.cont != nil && result.Objective-result.Initial <= contMinGain*math.Abs(result.Initial) {
		if s.tel.Enabled() {
			s.tel.Counter("smartbalance_plans_held_total").Add(1)
		}
		return
	}

	// ---- Phase 4: apply Ψ via migration (set_cpus_allowed_ptr). ----
	t3 := s.clock.Now()
	applied, refused := 0, 0
	for i, task := range optTasks {
		dst := result.Allocation[i]
		if dst != task.Core() {
			src := task.Core()
			if err := k.Migrate(task.ID, dst); err == nil {
				s.overhead.Migrations++
				applied++
				if s.tel.Enabled() {
					s.spanAttrs[0] = telemetry.Int("thread", int64(task.ID))
					s.spanAttrs[1] = telemetry.Int("from", int64(src))
					s.spanAttrs[2] = telemetry.Int("to", int64(dst))
					s.spanAttrs[3] = telemetry.F64("pred_ips", prob.IPS[i][int(dst)])
					s.spanAttrs[4] = telemetry.F64("pred_power", prob.Power[i][int(dst)])
					s.spanAttrs[5] = telemetry.F64("meas_ips", meas[i].IPS)
					s.spanAttrs[6] = telemetry.F64("meas_power", meas[i].PowerW)
					s.tel.Span(telemetry.PhaseMigrate, now, 0, s.spanAttrs[:7]...)
				}
			} else {
				refused++
			}
		}
	}
	s.overhead.Migrate += sinceOn(s.clock, t3)
	if s.tel.Enabled() {
		s.tel.Counter("smartbalance_migrations_total").Add(int64(applied))
		s.tel.Counter("smartbalance_migrations_refused_total").Add(int64(refused))
		s.spanAttrs[0] = telemetry.Int("requested", int64(applied+refused))
		s.spanAttrs[1] = telemetry.Int("applied", int64(applied))
		s.spanAttrs[2] = telemetry.Int("refused", int64(refused))
		s.tel.Span(telemetry.PhaseMigrate, now, 0, s.spanAttrs[:3]...)
		if refused >= refusedBurst {
			s.tel.Anomaly(now, telemetry.AnomalyRefusedBurst, //sbvet:allow hotpath(anomaly detail formats only when the flight recorder triggers)
				fmt.Sprintf("%d of %d requested migrations refused this epoch", refused, applied+refused))
		}
	}
}

// buildProblem assembles the optimisation input into controller-owned
// scratch: S(k) and P(k) rows are windows into two flat backing arrays
// that persist across epochs, so the steady-state predict phase
// allocates nothing. The returned problem aliases the controller and
// is valid until the next call.
func (s *SmartBalance) buildProblem(plat *arch.Platform, k *kernel.Kernel, meas []Measurement) (*Problem, error) {
	m := len(meas)
	n := plat.NumCores()
	q := plat.NumTypes()
	prob := &s.prob
	prob.Weights = s.cfg.Weights
	prob.Mode = s.cfg.Objective
	prob.Allowed = nil
	prob.Contention = nil
	if s.cont != nil {
		s.fillContentionTerm(&s.contTerm, plat, meas)
		prob.Contention = &s.contTerm
	}
	prob.Util = growFloats(prob.Util, m)
	prob.IdlePower = growFloats(prob.IdlePower, n)
	prob.IPS = growFloatRows(prob.IPS, m)
	prob.Power = growFloatRows(prob.Power, m)
	s.ipsBuf = growFloats(s.ipsBuf, m*n)
	s.powBuf = growFloats(s.powBuf, m*n)
	s.ipsByType = growFloats(s.ipsByType, q)
	s.powByType = growFloats(s.powByType, q)
	pm := k.Machine().PowerModels()
	for j := 0; j < n; j++ {
		prob.IdlePower[j] = pm.ForType(plat.TypeID(arch.CoreID(j))).SleepW()
	}
	// Predict once per (thread, type), then expand to cores.
	for i := range meas {
		mm := &meas[i]
		for tid := 0; tid < q; tid++ {
			ips, err := s.pred.PredictIPS(mm, arch.CoreTypeID(tid))
			if err != nil {
				return nil, fmt.Errorf("core: predict ips: %w", err) //sbvet:allow hotpath(wrap formats only when a prediction is rejected, which skips the epoch)
			}
			pw, err := s.pred.PredictPower(mm, arch.CoreTypeID(tid))
			if err != nil {
				return nil, fmt.Errorf("core: predict power: %w", err) //sbvet:allow hotpath(wrap formats only when a prediction is rejected, which skips the epoch)
			}
			s.ipsByType[tid] = ips
			s.powByType[tid] = pw
		}
		ipsRow := s.ipsBuf[i*n : (i+1)*n : (i+1)*n]
		powRow := s.powBuf[i*n : (i+1)*n : (i+1)*n]
		for j := 0; j < n; j++ {
			tid := plat.TypeID(arch.CoreID(j))
			ipsRow[j] = s.ipsByType[tid]
			powRow[j] = s.powByType[tid]
		}
		prob.IPS[i] = ipsRow
		prob.Power[i] = powRow
		prob.Util[i] = mm.Util
	}
	if prob.Contention != nil {
		s.normalizeContentionIPS(prob.Contention, prob.IPS, meas)
	}
	return prob, nil
}

// BuildProblem assembles the optimisation input from the epoch's
// measurements: S(k) and P(k) rows per thread (measured on the source
// type, predicted elsewhere), the utilisation vector, and per-core idle
// power. Allocating form for external callers; the controller's epoch
// path uses the scratch-backed buildProblem.
func (s *SmartBalance) BuildProblem(plat *arch.Platform, k *kernel.Kernel, meas []Measurement) (*Problem, error) {
	n := plat.NumCores()
	prob := &Problem{
		IPS:       make([][]float64, len(meas)),
		Power:     make([][]float64, len(meas)),
		Util:      make([]float64, len(meas)),
		IdlePower: make([]float64, n),
		Weights:   s.cfg.Weights,
		Mode:      s.cfg.Objective,
	}
	if s.cont != nil {
		t := &ContentionTerm{}
		s.fillContentionTerm(t, plat, meas)
		prob.Contention = t
	}
	pm := k.Machine().PowerModels()
	for j := 0; j < n; j++ {
		prob.IdlePower[j] = pm.ForType(plat.TypeID(arch.CoreID(j))).SleepW()
	}
	// Predict once per (thread, type), then expand to cores.
	q := plat.NumTypes()
	for i := range meas {
		m := &meas[i]
		ipsByType := make([]float64, q)
		powByType := make([]float64, q)
		for tid := 0; tid < q; tid++ {
			ips, err := s.pred.PredictIPS(m, arch.CoreTypeID(tid))
			if err != nil {
				return nil, fmt.Errorf("core: predict ips: %w", err)
			}
			p, err := s.pred.PredictPower(m, arch.CoreTypeID(tid))
			if err != nil {
				return nil, fmt.Errorf("core: predict power: %w", err)
			}
			ipsByType[tid] = ips
			powByType[tid] = p
		}
		prob.IPS[i] = make([]float64, n)
		prob.Power[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			tid := plat.TypeID(arch.CoreID(j))
			prob.IPS[i][j] = ipsByType[tid]
			prob.Power[i][j] = powByType[tid]
		}
		prob.Util[i] = m.Util
	}
	if prob.Contention != nil {
		s.normalizeContentionIPS(prob.Contention, prob.IPS, meas)
	}
	return prob, nil
}

// affinityMatrix extracts the tasks' CPU-affinity masks, or nil when no
// task is restricted. It probes with HasAffinity/AllowedOn rather than
// AllowedMask so the (overwhelmingly common) unrestricted case touches
// no allocating accessor.
func affinityMatrix(tasks []*kernel.Task, n int) [][]bool {
	any := false
	for _, t := range tasks {
		if t.HasAffinity() {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	out := make([][]bool, len(tasks)) //sbvet:allow hotpath(built only when a task carries an explicit affinity mask; the standard experiments have none)
	for i, t := range tasks {
		if !t.HasAffinity() {
			continue // nil row = unrestricted
		}
		row := make([]bool, n) //sbvet:allow hotpath(built only when a task carries an explicit affinity mask)
		for j := 0; j < n; j++ {
			row[j] = t.AllowedOn(arch.CoreID(j))
		}
		out[i] = row
	}
	return out
}

// OracleProblem builds the same optimisation input but with exact
// model-evaluated entries instead of predictions — the
// prediction-vs-oracle ablation.
func OracleProblem(plat *arch.Platform, k *kernel.Kernel, tasks []*kernel.Task, weights []float64) (*Problem, error) {
	n := plat.NumCores()
	epochNs := k.Config().EpochNs
	prob := &Problem{ //sbvet:allow hotpath(oracle ablation baseline, outside the SmartBalance zero-alloc contract)
		IPS:       make([][]float64, len(tasks)), //sbvet:allow hotpath(oracle ablation baseline, outside the SmartBalance zero-alloc contract)
		Power:     make([][]float64, len(tasks)), //sbvet:allow hotpath(oracle ablation baseline, outside the SmartBalance zero-alloc contract)
		Util:      make([]float64, len(tasks)),   //sbvet:allow hotpath(oracle ablation baseline, outside the SmartBalance zero-alloc contract)
		IdlePower: make([]float64, n),            //sbvet:allow hotpath(oracle ablation baseline, outside the SmartBalance zero-alloc contract)
		Weights:   weights,
	}
	pm := k.Machine().PowerModels()
	for j := 0; j < n; j++ {
		prob.IdlePower[j] = pm.ForType(plat.TypeID(arch.CoreID(j))).SleepW()
	}
	for i, task := range tasks {
		prob.IPS[i] = make([]float64, n)   //sbvet:allow hotpath(oracle ablation baseline, outside the SmartBalance zero-alloc contract)
		prob.Power[i] = make([]float64, n) //sbvet:allow hotpath(oracle ablation baseline, outside the SmartBalance zero-alloc contract)
		st := k.Machine()
		ts := task.MachineState()
		for j := 0; j < n; j++ {
			tid := plat.TypeID(arch.CoreID(j))
			met := st.SteadyMetrics(ts, tid)
			ct := plat.Type(arch.CoreID(j))
			prob.IPS[i][j] = met.IPS(ct)
			prob.Power[i][j] = pm.ForType(tid).BusyPower(met.IPC, ts.CurrentPhase())
		}
		prob.Util[i] = task.Utilization(epochNs)
	}
	prob.Allowed = affinityMatrix(tasks, n)
	return prob, nil
}
