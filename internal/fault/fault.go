// Package fault is the deterministic fault-injection layer for the
// sense→predict→balance loop: it perturbs what the balancer observes —
// per-thread counter samples, per-core power readings, and the outcome
// of migration requests — without ever touching the simulation's ground
// truth. Real sensing stacks lose counter banks, replay stale epochs,
// saturate on overflow, and transiently refuse migrations; SmartBalance
// must degrade gracefully under all of it (see DESIGN.md §9), and this
// package makes every one of those imperfections reproducible.
//
// Determinism contract: an Injector is a pure function of its Plan, its
// seed, and the simulated call sequence. All randomness flows from one
// rng.Rand stream whose draws are consumed in sorted-thread-id order,
// so a run with faults is exactly as reproducible as a run without.
// Wall-clock time never enters (the sbvet wallclock invariant); the
// only time an injector sees is the kernel's simulated clock.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"smartbalance/internal/arch"
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
	"smartbalance/internal/param"
	"smartbalance/internal/rng"
)

// ErrMigrationRefused is the sentinel wrapped by every injected
// migration failure, so callers can distinguish an injected transient
// refusal from a genuinely invalid request.
var ErrMigrationRefused = errors.New("fault: migration refused (injected)")

// saturated is the value injected into event counters by the saturate
// corruption: large enough that every derived rate (IPC, miss rates,
// instruction shares) is wildly implausible, small enough that sums of
// a few of them cannot overflow uint64.
const saturated = uint64(1) << 62

// defaultSpikeFactor multiplies power readings on an injected spike
// when the plan does not set its own factor.
const defaultSpikeFactor = 10.0

// Plan describes one fault-injection configuration. The five sensor
// rates are per-thread-epoch probabilities of mutually exclusive fault
// kinds (a single uniform draw per thread per epoch selects at most
// one), so their sum must not exceed 1. The zero value injects nothing.
type Plan struct {
	// DropRate is the probability a thread's epoch sample vanishes
	// entirely (a dropped counter bank).
	DropRate float64 `json:"drop,omitempty"`
	// StaleRate is the probability the thread's previous-epoch sample
	// is replayed in place of the current one (a stale sensor read).
	// With no previous epoch on record the fault degrades to a drop.
	StaleRate float64 `json:"stale,omitempty"`
	// CorruptRate is the probability the thread's counters are zeroed
	// or saturated (chosen by a coin flip), modelling counter-bank
	// wipes and overflow.
	CorruptRate float64 `json:"corrupt,omitempty"`
	// PowerDropRate is the probability the thread's power reading (and,
	// independently per core, the core power sensor) reads zero.
	PowerDropRate float64 `json:"powerdrop,omitempty"`
	// PowerSpikeRate is the probability the power reading is multiplied
	// by SpikeFactor (an electrical transient).
	PowerSpikeRate float64 `json:"powerspike,omitempty"`
	// MigrateFailRate is the per-call probability a valid
	// kernel.Migrate request is refused with ErrMigrationRefused.
	MigrateFailRate float64 `json:"migfail,omitempty"`
	// SpikeFactor is the power-spike multiplier; 0 selects the default
	// of 10.
	SpikeFactor float64 `json:"spikex,omitempty"`
	// Seed drives the injector's random stream. 0 defers to the seed
	// the injector is constructed with (normally derived from the
	// scenario seed), keeping single-seed scenarios single-knobbed.
	Seed uint64 `json:"seed,omitempty"`
}

// IsZero reports whether the plan injects nothing.
func (p Plan) IsZero() bool {
	return p.DropRate == 0 && p.StaleRate == 0 && p.CorruptRate == 0 && //sbvet:allow floateq(zero is the fault-disabled sentinel, never a computed value)
		p.PowerDropRate == 0 && p.PowerSpikeRate == 0 && p.MigrateFailRate == 0 //sbvet:allow floateq(zero is the fault-disabled sentinel, never a computed value)
}

// sensorSum returns the total probability mass of the per-thread sensor
// faults.
func (p Plan) sensorSum() float64 {
	return p.DropRate + p.StaleRate + p.CorruptRate + p.PowerDropRate + p.PowerSpikeRate
}

// Validate checks the plan's probabilities.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"drop", p.DropRate}, {"stale", p.StaleRate}, {"corrupt", p.CorruptRate},
		{"powerdrop", p.PowerDropRate}, {"powerspike", p.PowerSpikeRate},
		{"migfail", p.MigrateFailRate},
	} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s rate %g outside [0, 1]", r.name, r.v)
		}
	}
	if s := p.sensorSum(); s > 1+1e-12 {
		return fmt.Errorf("fault: sensor fault rates sum to %g > 1 (they are mutually exclusive per thread-epoch)", s)
	}
	if math.IsNaN(p.SpikeFactor) || math.IsInf(p.SpikeFactor, 0) {
		return fmt.Errorf("fault: spike factor %g not finite", p.SpikeFactor)
	}
	if p.SpikeFactor != 0 && p.SpikeFactor < 1 { //sbvet:allow floateq(zero is the use-default sentinel, never a computed value)
		return fmt.Errorf("fault: spike factor %g below 1", p.SpikeFactor)
	}
	return nil
}

// Clamped returns the nearest valid plan: each rate clamped to [0, 1]
// (NaN reads as 0), the mutually exclusive sensor rates rescaled
// proportionally when their sum exceeds 1, a negative or non-finite
// SpikeFactor reset to 0 (the default), and any other non-zero
// SpikeFactor raised to at least 1. Validate is nil on the result.
// Mutation-based callers (the adversarial hunt) perturb rates
// independently and rely on this to land back inside the plan domain
// instead of erroring.
func (p Plan) Clamped() Plan {
	clamp01 := func(v float64) float64 {
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	q := p
	q.DropRate = clamp01(p.DropRate)
	q.StaleRate = clamp01(p.StaleRate)
	q.CorruptRate = clamp01(p.CorruptRate)
	q.PowerDropRate = clamp01(p.PowerDropRate)
	q.PowerSpikeRate = clamp01(p.PowerSpikeRate)
	q.MigrateFailRate = clamp01(p.MigrateFailRate)
	if s := q.sensorSum(); s > 1 {
		q.DropRate /= s
		q.StaleRate /= s
		q.CorruptRate /= s
		q.PowerDropRate /= s
		q.PowerSpikeRate /= s
	}
	if math.IsNaN(q.SpikeFactor) || math.IsInf(q.SpikeFactor, 0) || q.SpikeFactor < 0 {
		q.SpikeFactor = 0
	}
	if q.SpikeFactor != 0 && q.SpikeFactor < 1 { //sbvet:allow floateq(zero is the use-default sentinel, never a computed value)
		q.SpikeFactor = 1
	}
	return q
}

// String renders the plan in the canonical spec grammar accepted by
// ParsePlan: semicolon-separated key=value pairs in fixed field order,
// zero fields omitted. The zero plan renders as "none".
func (p Plan) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 { //sbvet:allow floateq(zero fields are elided from the canonical spec, never computed)
			parts = append(parts, k+"="+param.Float(v))
		}
	}
	add("drop", p.DropRate)
	add("stale", p.StaleRate)
	add("corrupt", p.CorruptRate)
	add("powerdrop", p.PowerDropRate)
	add("powerspike", p.PowerSpikeRate)
	add("migfail", p.MigrateFailRate)
	add("spikex", p.SpikeFactor)
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(p.Seed, 10))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ";")
}

// ParsePlan parses the spec grammar produced by String:
// "drop=0.5;stale=0.1;migfail=0.2;seed=7", read by param.Parse with ';'
// between items. "", "none", and "off" all mean the zero plan. Keys
// match the Plan fields: drop, stale, corrupt, powerdrop, powerspike,
// migfail, spikex, seed.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" || spec == "off" {
		return p, nil
	}
	if err := param.Parse(spec, ";", map[string]any{
		"drop": &p.DropRate, "stale": &p.StaleRate, "corrupt": &p.CorruptRate,
		"powerdrop": &p.PowerDropRate, "powerspike": &p.PowerSpikeRate,
		"migfail": &p.MigrateFailRate, "spikex": &p.SpikeFactor, "seed": &p.Seed,
	}); err != nil {
		return Plan{}, fmt.Errorf("fault: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Stats counts the faults an injector has materialised. Deterministic
// per (plan, seed, run): tests assert on exact values.
type Stats struct {
	// Epochs is the number of FilterEpoch invocations.
	Epochs int
	// Dropped counts vanished thread samples (including stale faults
	// with no history to replay).
	Dropped int
	// Staled counts replayed previous-epoch samples.
	Staled int
	// Corrupted counts zeroed/saturated samples.
	Corrupted int
	// PowerDrops and PowerSpikes count power-sensor faults across both
	// thread samples and per-core aggregates.
	PowerDrops  int
	PowerSpikes int
	// MigrateFails counts refused migration requests.
	MigrateFails int
}

// Injector implements kernel.FaultInjector according to a Plan. Not
// safe for concurrent use: one injector serves exactly one kernel,
// which calls it from one goroutine.
type Injector struct {
	plan Plan
	r    *rng.Rand

	// prev is the previous epoch's unperturbed snapshot, the source of
	// stale-replay faults.
	prev  []hpc.ThreadSample
	stats Stats
}

var _ kernel.FaultInjector = (*Injector)(nil)

// SeedFor derives a run's injector seed: the run seed xor a fixed tag,
// which decorrelates the fault stream from the kernel's. sbsim, the
// sweep engine and A13 all derive it here, so the same plan and seed
// inject the identical fault sequence from every front end.
func SeedFor(runSeed uint64) uint64 { return runSeed ^ 0xFA_17_1A_9E_5D }

// New builds an injector for the plan. seed drives the fault stream
// when the plan does not pin its own Seed; callers derive it from the
// scenario seed with SeedFor so one knob reproduces the whole run.
func New(plan Plan, seed uint64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.Seed != 0 {
		seed = plan.Seed
	}
	return &Injector{plan: plan, r: rng.New(seed)}, nil
}

// Plan returns the injector's configuration.
func (in *Injector) Plan() Plan { return in.plan }

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// spikeFactor resolves the configured or default spike multiplier.
func (in *Injector) spikeFactor() float64 {
	if in.plan.SpikeFactor >= 1 {
		return in.plan.SpikeFactor
	}
	return defaultSpikeFactor
}

// FilterEpoch implements kernel.FaultInjector: one uniform draw per
// thread (in sorted id order, so draws never depend on map iteration)
// selects at most one sensor fault; per-core power sensors then draw
// independently. The unperturbed snapshot is retained for next epoch's
// stale replays.
func (in *Injector) FilterEpoch(epoch int, now kernel.Time, threads []hpc.ThreadSample, cores []hpc.CoreEpochSample) ([]hpc.ThreadSample, []hpc.CoreEpochSample) {
	in.stats.Epochs++
	if in.plan.sensorSum() <= 0 {
		in.prev = threads
		return threads, cores
	}
	// The snapshot is sorted ascending by thread id (the
	// hpc.Bank.Snapshot contract), so iterating in slice order consumes
	// rng draws in sorted-id order exactly as the map-era sort did.
	out := make([]hpc.ThreadSample, 0, len(threads)) //sbvet:allow hotpath(fault-experiment path; guarded by sensorSum()>0, unreachable in clean runs)
	p := in.plan
	for i := range threads {
		tid, s := threads[i].Thread, threads[i].Sample
		u := in.r.Float64()
		switch {
		case u < p.DropRate:
			in.stats.Dropped++
		case u < p.DropRate+p.StaleRate:
			if prev := hpc.FindThread(in.prev, tid); prev != nil {
				out = append(out, hpc.ThreadSample{Thread: tid, Sample: copySample(prev)}) //sbvet:allow hotpath(fault-experiment path; guarded by sensorSum()>0, unreachable in clean runs)
				in.stats.Staled++
			} else {
				// Nothing to replay yet: the sensor delivered garbage
				// framing, observed as a drop.
				in.stats.Dropped++
			}
		case u < p.DropRate+p.StaleRate+p.CorruptRate:
			c := copySample(s)
			if in.r.Uint64()&1 == 0 {
				zeroSample(c)
			} else {
				saturateSample(c)
			}
			out = append(out, hpc.ThreadSample{Thread: tid, Sample: c}) //sbvet:allow hotpath(fault-experiment path; guarded by sensorSum()>0, unreachable in clean runs)
			in.stats.Corrupted++
		case u < p.DropRate+p.StaleRate+p.CorruptRate+p.PowerDropRate:
			c := copySample(s)
			scaleEnergy(c, 0)
			out = append(out, hpc.ThreadSample{Thread: tid, Sample: c}) //sbvet:allow hotpath(fault-experiment path; guarded by sensorSum()>0, unreachable in clean runs)
			in.stats.PowerDrops++
		case u < p.sensorSum():
			c := copySample(s)
			scaleEnergy(c, in.spikeFactor())
			out = append(out, hpc.ThreadSample{Thread: tid, Sample: c}) //sbvet:allow hotpath(fault-experiment path; guarded by sensorSum()>0, unreachable in clean runs)
			in.stats.PowerSpikes++
		default:
			out = append(out, threads[i]) //sbvet:allow hotpath(fault-experiment path; guarded by sensorSum()>0, unreachable in clean runs)
		}
	}

	outCores := cores
	if p.PowerDropRate > 0 || p.PowerSpikeRate > 0 {
		outCores = append([]hpc.CoreEpochSample(nil), cores...) //sbvet:allow hotpath(fault-experiment path; guarded by sensorSum()>0, unreachable in clean runs)
		for i := range outCores {
			u := in.r.Float64()
			switch {
			case u < p.PowerDropRate:
				outCores[i].Agg.EnergyJ = 0
				outCores[i].SleepEnergyJ = 0
				in.stats.PowerDrops++
			case u < p.PowerDropRate+p.PowerSpikeRate:
				outCores[i].Agg.EnergyJ *= in.spikeFactor()
				outCores[i].SleepEnergyJ *= in.spikeFactor()
				in.stats.PowerSpikes++
			}
		}
	}
	in.prev = threads
	return out, outCores
}

// MigrateFault implements kernel.FaultInjector.
func (in *Injector) MigrateFault(now kernel.Time, id kernel.ThreadID, dst arch.CoreID) error {
	if in.plan.MigrateFailRate <= 0 {
		return nil
	}
	if in.r.Float64() < in.plan.MigrateFailRate {
		in.stats.MigrateFails++
		return fmt.Errorf("%w: task %d -> core %d", ErrMigrationRefused, id, dst) //sbvet:allow hotpath(injected-refusal diagnostic; fires only under a configured MigrateFailRate experiment)
	}
	return nil
}

// copySample deep-copies a thread sample so perturbations never alias
// the clean snapshot retained for stale replay (snapshot views are
// bank-owned double buffers, valid only until the next epoch).
func copySample(s *hpc.ThreadEpochSample) *hpc.ThreadEpochSample {
	return &hpc.ThreadEpochSample{PerCore: append([]hpc.CoreCounters(nil), s.PerCore...)} //sbvet:allow hotpath(fault-experiment path; reached only from FilterEpoch perturbation branches)
}

// zeroSample wipes every counter: the bank lost the thread's state.
func zeroSample(s *hpc.ThreadEpochSample) {
	for i := range s.PerCore {
		s.PerCore[i].C = hpc.Counters{}
	}
}

// saturateSample overflows the event counters while leaving the
// scheduler-owned run time intact — the measured rates become wildly
// implausible, which is exactly what the hardened Sense must catch.
func saturateSample(s *hpc.ThreadEpochSample) {
	for i := range s.PerCore {
		c := &s.PerCore[i].C
		c.Instructions = saturated
		c.MemInstructions = saturated
		c.BranchInstructions = saturated
		c.CyclesBusy = saturated
		c.CyclesIdle = saturated
		c.L1IMisses = saturated
		c.L1DMisses = saturated
		c.BranchMispredicts = saturated
		c.ITLBMisses = saturated
		c.DTLBMisses = saturated
		c.LLCMisses = saturated
		c.MemBytes = saturated
	}
}

// scaleEnergy multiplies every power reading in the sample.
func scaleEnergy(s *hpc.ThreadEpochSample, factor float64) {
	for i := range s.PerCore {
		s.PerCore[i].C.EnergyJ *= factor
	}
}
