// Package smartbalance is a library-grade reproduction of
// "SmartBalance: A Sensing-Driven Linux Load Balancer for Energy
// Efficiency of Heterogeneous MPSoCs" (Sarma et al., DAC 2015).
//
// It bundles, behind one API:
//
//   - a heterogeneous-MPSoC simulation substrate (interval-analysis CPU
//     performance model, calibrated activity-based power model, and a
//     discrete-event CFS scheduling kernel standing in for the paper's
//     Gem5 + McPAT + Linux 2.6 stack);
//   - the SmartBalance closed-loop sense-predict-balance controller
//     (per-thread counter sensing, cross-core-type linear prediction,
//     and fixed-point simulated-annealing allocation, Algorithm 1);
//   - the baseline policies the paper compares against (vanilla Linux
//     load balancing, ARM GTS, Linaro IKS);
//   - PARSEC-like and interactive synthetic workloads (Table 3 mixes,
//     the IMB grid); and
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
//	plat := smartbalance.QuadHMP()
//	bal, _ := smartbalance.TrainSmartBalance(plat.Types, 1)
//	sys, _ := smartbalance.NewSystem(plat, bal)
//	specs, _ := smartbalance.Mix("Mix1", 4, 1)
//	_ = sys.SpawnAll(specs)
//	_ = sys.Run(2 * time.Second)
//	fmt.Printf("%.3g IPS/W\n", sys.Stats().EnergyEfficiency())
package smartbalance

import (
	"errors"
	"fmt"
	"io"
	"time"

	"smartbalance/internal/arch"
	"smartbalance/internal/balancer"
	"smartbalance/internal/core"
	"smartbalance/internal/exp"
	"smartbalance/internal/fault"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/powermodel"
	"smartbalance/internal/telemetry"
	"smartbalance/internal/thermal"
	"smartbalance/internal/workload"
)

// Re-exported vocabulary types. The facade aliases the internal types
// so applications never import internal packages directly.
type (
	// Platform is a heterogeneous MPSoC description.
	Platform = arch.Platform
	// CoreType is one architecturally differentiated core configuration
	// (a Table 2 column).
	CoreType = arch.CoreType
	// CoreID identifies a physical core.
	CoreID = arch.CoreID
	// ThreadSpec is a synthetic workload thread description.
	ThreadSpec = workload.ThreadSpec
	// Phase is one execution phase of a thread.
	Phase = workload.Phase
	// Balancer is a pluggable load-balancing policy.
	Balancer = kernel.Balancer
	// ThreadID identifies a spawned thread.
	ThreadID = kernel.ThreadID
	// RunStats is the observable outcome of a simulation run.
	RunStats = kernel.RunStats
	// KernelConfig tunes the scheduling substrate (CFS latency, epoch
	// length, migration penalty, sensor noise).
	KernelConfig = kernel.Config
	// SmartBalanceController is the paper's contribution: the
	// sense-predict-balance closed-loop balancer.
	SmartBalanceController = core.SmartBalance
	// Predictor is the trained cross-core performance/power predictor.
	Predictor = core.Predictor
	// ExperimentOptions configures paper-experiment regeneration.
	ExperimentOptions = exp.Options
	// ExperimentResult is one regenerated table/figure.
	ExperimentResult = exp.Result
	// Level is an IMB throughput/interactivity level (Low/Medium/High).
	Level = workload.Level
)

// IMB levels, re-exported.
const (
	Low    = workload.Low
	Medium = workload.Medium
	High   = workload.High
)

// Platform constructors.

// QuadHMP returns the paper's 4-type heterogeneous platform (one Huge,
// Big, Medium, and Small core; Table 2).
func QuadHMP() *Platform { return arch.QuadHMP() }

// OctaBigLittle returns the octa-core big.LITTLE platform of the GTS
// comparison (Section 6.1).
func OctaBigLittle() *Platform { return arch.OctaBigLittle() }

// ScalingHMP returns an n-core platform tiling the Table 2 core types,
// as used in the Fig. 7 scalability sweep.
func ScalingHMP(n int) (*Platform, error) { return arch.ScalingHMP(n) }

// Table2Types returns the four Table 2 core types.
func Table2Types() []CoreType { return arch.Table2Types() }

// BigLittleTypes returns the two big.LITTLE core types.
func BigLittleTypes() []CoreType { return arch.BigLittleTypes() }

// OperatingPoint is one DVFS voltage/frequency pair.
type OperatingPoint = arch.OperatingPoint

// DVFSPlatform builds a platform whose heterogeneity is purely DVFS:
// coresPerPoint cores of the same micro-architecture at each operating
// point, each point treated as a distinct core type (Section 3).
func DVFSPlatform(base CoreType, points []OperatingPoint, coresPerPoint int) (*Platform, error) {
	return arch.DVFSPlatform(base, points, coresPerPoint, powermodel.LeakageFraction)
}

// Workload constructors.

// Benchmarks lists the available PARSEC-like benchmark names.
func Benchmarks() []string { return workload.Benchmarks() }

// Benchmark materialises nthreads worker threads of a named benchmark.
func Benchmark(name string, nthreads int, seed uint64) ([]ThreadSpec, error) {
	return workload.Benchmark(name, nthreads, seed)
}

// MixNames lists the Table 3 mix identifiers.
func MixNames() []string { return workload.MixNames() }

// Mix materialises a Table 3 benchmark mix with nthreads workers per
// constituent benchmark.
func Mix(name string, nthreads int, seed uint64) ([]ThreadSpec, error) {
	return workload.Mix(name, nthreads, seed)
}

// IMB materialises an interactive microbenchmark configuration.
func IMB(throughput, interactivity Level, nthreads int, seed uint64) ([]ThreadSpec, error) {
	return workload.IMB(throughput, interactivity, nthreads, seed)
}

// WorkloadBuilder assembles custom thread specs from phase archetypes
// (Compute/Memory/Branchy/Custom, with Sleep for interactivity).
type WorkloadBuilder = workload.Builder

// NewWorkload starts a custom workload definition.
func NewWorkload(name string) *WorkloadBuilder { return workload.NewBuilder(name) }

// Balancer constructors.

// NewVanillaBalancer returns the stock Linux load balancer baseline.
func NewVanillaBalancer() Balancer { return balancer.Vanilla{} }

// NewGTSBalancer returns ARM's Global Task Scheduling policy for a
// two-type big.LITTLE platform.
func NewGTSBalancer(p *Platform) (Balancer, error) { return balancer.NewGTS(p) }

// NewIKSBalancer returns the Linaro In-Kernel Switcher baseline.
func NewIKSBalancer(p *Platform) (Balancer, error) { return balancer.NewIKS(p) }

// NewPinnedBalancer returns a no-op balancer (fork placement only).
func NewPinnedBalancer() Balancer { return balancer.Pinned{} }

// TrainPredictor runs the offline profiling step and fits the
// cross-core-type coefficient matrix Θ (Eq. 8, Table 4) and the
// per-type power fits (Eq. 9) for the given core-type set.
func TrainPredictor(types []CoreType, seed uint64) (*Predictor, error) {
	cfg := core.DefaultTrainConfig()
	cfg.Seed = seed
	return core.Train(types, cfg)
}

// TrainSmartBalance trains a predictor and wraps it in a SmartBalance
// controller with default Algorithm 1 parameters and the paper's
// energy-efficiency goal.
func TrainSmartBalance(types []CoreType, seed uint64) (*SmartBalanceController, error) {
	pred, err := TrainPredictor(types, seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Anneal.Seed = seed
	return core.New(pred, cfg)
}

// SmartBalanceConfig tunes the controller: Algorithm 1 parameters,
// per-core weights ω_j, and the optimisation goal.
type SmartBalanceConfig = core.Config

// ObjectiveMode selects the optimisation goal (Sec. 4.3).
type ObjectiveMode = core.ObjectiveMode

// Optimisation goals.
const (
	// GoalEnergyEfficiency maximises overall IPS/Watt (the paper's goal).
	GoalEnergyEfficiency = core.GlobalRatio
	// GoalLiteralEq11 maximises the literal Eq. (11) per-core ratio sum
	// (ablation; see DESIGN.md §4).
	GoalLiteralEq11 = core.PerCoreRatioSum
	// GoalMaxThroughput maximises aggregate IPS, ignoring power.
	GoalMaxThroughput = core.MaxThroughput
)

// DefaultSmartBalanceConfig returns the standard controller settings.
func DefaultSmartBalanceConfig() SmartBalanceConfig { return core.DefaultConfig() }

// Clock is the controller's time source for overhead measurement.
// Simulation packages never read host time directly (the sbvet
// wallclock invariant); real time enters only through RealClock,
// injected at the application boundary.
type Clock = core.Clock

// RealClock returns the host-time Clock for measuring actual controller
// overhead (Fig. 7). Use it in binaries; simulations and tests should
// prefer NewFakeClock for reproducible output.
func RealClock() Clock { return core.RealClock() }

// NewFakeClock returns a deterministic Clock advancing by step per
// reading, making overhead figures a pure function of the run.
func NewFakeClock(step time.Duration) Clock { return core.NewFakeClock(step) }

// NewSmartBalanceController builds a controller from an already-trained
// predictor with explicit configuration.
func NewSmartBalanceController(pred *Predictor, cfg SmartBalanceConfig) (*SmartBalanceController, error) {
	return core.New(pred, cfg)
}

// DefaultKernelConfig returns the scheduling-substrate defaults used in
// the paper's experiments (12 ms CFS latency, 60 ms epoch).
func DefaultKernelConfig() KernelConfig { return kernel.DefaultConfig() }

// Fault injection (DESIGN.md §9): deterministic sensing and migration
// faults, applied to what the balancer observes — never to the
// simulation's ground truth.

// FaultPlan describes a deterministic fault-injection campaign:
// per-thread-epoch probabilities of dropped, stale, corrupt, and
// power-faulted sensor readings, plus a per-call migration-refusal
// rate. The zero plan injects nothing.
type FaultPlan = fault.Plan

// FaultInjector perturbs the balancer's view of the machine according
// to a FaultPlan; install it via KernelConfig.Faults. Deterministic per
// (plan, seed).
type FaultInjector = fault.Injector

// FaultStats counts the faults an injector has materialised.
type FaultStats = fault.Stats

// ParseFaultPlan parses the canonical fault-plan spec grammar, e.g.
// "drop=0.3;stale=0.1;migfail=0.2". "", "none", and "off" all mean the
// zero plan.
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.ParsePlan(spec) }

// NewFaultInjector builds a deterministic injector for the plan. seed
// drives the fault stream when the plan does not pin its own Seed;
// derive it from the run seed so one knob reproduces the whole run.
func NewFaultInjector(plan FaultPlan, seed uint64) (*FaultInjector, error) {
	return fault.New(plan, seed)
}

// ThermalTracker estimates per-core die temperature from the power
// sensors with a first-order RC model.
type ThermalTracker = thermal.Tracker

// ThermalAwareBalancer wraps SmartBalance with temperature feedback:
// hot cores' objective weights ω_j are derated so the optimiser steers
// work away from them (the Eq. 11 weight knob, applied to the paper's
// Sec. 6.4 thermal-tracking outlook).
type ThermalAwareBalancer = thermal.Aware

// NewThermalSmartBalance trains a SmartBalance controller and wraps it
// with thermal awareness for the platform, returning the balancer and
// its temperature tracker.
func NewThermalSmartBalance(p *Platform, seed uint64) (*ThermalAwareBalancer, *ThermalTracker, error) {
	inner, err := TrainSmartBalance(p.Types, seed)
	if err != nil {
		return nil, nil, err
	}
	params, err := thermal.FromPlatform(p)
	if err != nil {
		return nil, nil, err
	}
	tr, err := thermal.NewTracker(params)
	if err != nil {
		return nil, nil, err
	}
	aw, err := thermal.NewAware(inner, tr)
	if err != nil {
		return nil, nil, err
	}
	return aw, tr, nil
}

// System is a ready-to-run simulated machine: platform + execution
// models + scheduling kernel + balancing policy.
type System struct {
	k    *kernel.Kernel
	plat *Platform

	// tel and telObs track the telemetry collector and its kernel
	// observer slot (-1 when none).
	tel    *telemetry.Collector
	telObs int
}

// NewSystem builds a System over the platform with the given balancer
// and the default kernel configuration.
func NewSystem(p *Platform, b Balancer) (*System, error) {
	return NewSystemWithConfig(p, b, kernel.DefaultConfig())
}

// NewSystemWithConfig builds a System with an explicit kernel
// configuration.
func NewSystemWithConfig(p *Platform, b Balancer, cfg KernelConfig) (*System, error) {
	return NewSystemFull(p, b, cfg, MachineOptions{})
}

// MachineOptions tunes the execution substrate: its one field,
// Contention, configures the shared-resource contention model (LLC
// domains, their memory bandwidth and, with BusGBps, the chip-wide
// memory bus); the zero value disables it.
type MachineOptions = machine.Options

// NewSystemFull builds a System with explicit kernel configuration and
// machine options.
func NewSystemFull(p *Platform, b Balancer, cfg KernelConfig, mopts MachineOptions) (*System, error) {
	if p == nil {
		return nil, errors.New("smartbalance: nil platform")
	}
	m, err := machine.NewWithOptions(p, mopts)
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(m, b, cfg)
	if err != nil {
		return nil, err
	}
	return &System{k: k, plat: p, telObs: -1}, nil
}

// Platform returns the system's platform.
func (s *System) Platform() *Platform { return s.plat }

// Kernel exposes the underlying scheduling kernel for advanced use
// (custom balancers, invariant checks).
func (s *System) Kernel() *kernel.Kernel { return s.k }

// Spawn creates one thread.
func (s *System) Spawn(spec *ThreadSpec) (ThreadID, error) { return s.k.Spawn(spec) }

// SetAffinity restricts a thread to the given cores (the
// sched_setaffinity analogue); balancers — including SmartBalance's
// optimiser — honour the mask.
func (s *System) SetAffinity(id ThreadID, cores []CoreID) error {
	return s.k.SetAffinity(id, cores)
}

// ClearAffinity removes a thread's affinity restriction.
func (s *System) ClearAffinity(id ThreadID) error { return s.k.ClearAffinity(id) }

// SpawnAll creates every thread of a workload.
func (s *System) SpawnAll(specs []ThreadSpec) error {
	for i := range specs {
		if _, err := s.k.Spawn(&specs[i]); err != nil {
			return fmt.Errorf("smartbalance: spawn %q: %w", specs[i].Name, err)
		}
	}
	return nil
}

// Run advances the simulation by d of simulated time. It may be called
// repeatedly to extend a run.
func (s *System) Run(d time.Duration) error {
	if d <= 0 {
		return errors.New("smartbalance: non-positive duration")
	}
	return s.k.Run(s.k.Now() + d.Nanoseconds())
}

// Stats snapshots the cumulative run statistics.
func (s *System) Stats() *RunStats { return s.k.Stats() }

// Telemetry collection (DESIGN.md §10): deterministic spans, metrics,
// and anomaly records for the whole sense-predict-balance loop, kept
// as one complete epoch history.

// TelemetryCollector accumulates one run's telemetry; export it with
// WriteTelemetryJSONL and friends, or inspect it with cmd/sbtrace.
type TelemetryCollector = telemetry.Collector

// TelemetryTrace is the export-ready snapshot of a collector.
type TelemetryTrace = telemetry.Trace

// NewTelemetryCollector builds a standalone collector, for callers
// that record telemetry outside a System (the way sbsweep writes a
// whole sweep's job records into one trace). Systems use
// EnableTelemetry instead.
func NewTelemetryCollector() *TelemetryCollector {
	return telemetry.New()
}

// EnableTelemetry attaches a telemetry collector: kernel scheduling
// events feed event/instruction counters and open one epoch record per
// kernel epoch, and a
// SmartBalance controller (bare or thermally wrapped) additionally
// reports per-phase spans, health gauges, and anomaly triggers. Call
// before Run. Repeated calls replace the previous collector; it
// composes with any other observer installed through
// Kernel().AddObserver.
func (s *System) EnableTelemetry() *TelemetryCollector {
	c := telemetry.New()
	c.SetMeta("balancer", s.k.Balancer().Name())
	c.SetMeta("cores", fmt.Sprintf("%d", s.plat.NumCores()))
	if s.telObs >= 0 {
		s.k.RemoveObserver(s.telObs)
	}
	s.telObs = telemetry.Attach(s.k, c)
	s.tel = c
	return c
}

// Telemetry returns the collector installed by EnableTelemetry, or nil
// (the zero-cost disabled collector) when telemetry is off.
func (s *System) Telemetry() *TelemetryCollector { return s.tel }

// WriteTelemetryJSONL renders a telemetry trace in the canonical JSONL
// interchange format (byte-identical across equal runs).
func WriteTelemetryJSONL(w io.Writer, tr *TelemetryTrace) error {
	return telemetry.WriteJSONL(w, tr)
}

// WriteTelemetryChrome renders a telemetry trace in Chrome trace-event
// format for chrome://tracing or Perfetto.
func WriteTelemetryChrome(w io.Writer, tr *TelemetryTrace) error {
	return telemetry.WriteChrome(w, tr)
}

// WriteTelemetryProm renders a telemetry trace's metrics in the
// Prometheus text exposition format.
func WriteTelemetryProm(w io.Writer, tr *TelemetryTrace) error {
	return telemetry.WriteProm(w, tr)
}

// ReadTelemetryJSONL parses a canonical JSONL telemetry export.
func ReadTelemetryJSONL(r io.Reader) (*TelemetryTrace, error) {
	return telemetry.ReadJSONL(r)
}

// TelemetryDivergence localises the first difference between two
// telemetry traces.
type TelemetryDivergence = telemetry.Divergence

// FirstTelemetryDivergence compares two telemetry traces and returns
// the first divergence (epoch-first), or nil when identical — the
// primitive behind `sbtrace diff`.
func FirstTelemetryDivergence(a, b *TelemetryTrace) *TelemetryDivergence {
	return telemetry.FirstDivergence(a, b)
}

// Experiment regeneration.

// DefaultExperimentOptions returns the standard experiment settings.
func DefaultExperimentOptions() ExperimentOptions { return exp.DefaultOptions() }

// ExperimentIDs lists the regenerable artefacts in paper order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range exp.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment regenerates one paper table/figure by id (T2..T4,
// F4a..F8) or ablation (A1..A14).
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	r := exp.RunnerFor(id)
	if r == nil {
		return nil, fmt.Errorf("smartbalance: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	return r(opts)
}

// ReplicateExperiment runs an artefact across several seeds and
// aggregates its headline metrics (mean/std/min/max) — the replication
// study behind any single-seed number.
func ReplicateExperiment(id string, opts ExperimentOptions, seeds []uint64) (*ExperimentResult, error) {
	return exp.Replicate(id, opts, seeds)
}

// WriteReport renders regenerated artefacts as a Markdown digest
// (paper claim, headline metrics, and full table per artefact).
func WriteReport(w io.Writer, results []*ExperimentResult, opts ExperimentOptions) error {
	return exp.WriteReport(w, results, opts)
}
