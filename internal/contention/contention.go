// Package contention is the one model of shared memory resources: the
// cluster-level last-level cache each LLC domain's co-runners fight
// over, the domain's slice of memory bandwidth, and, optionally, the
// chip-wide memory bus every core reaches memory through (the paper's
// Section 5 platform). The private-cache interval model
// (internal/perfmodel) deliberately ignores all three. The model
// supplies the two per-core degradation factors the machine applies on
// top of the private-cache metrics:
//
//   - MissScale: working-set overlap with co-runners in the same LLC
//     domain inflates the conditional L2->memory miss rate (capacity
//     stolen by neighbours turns would-be LLC hits into DRAM trips);
//   - LatScale: miss traffic approaching a bandwidth budget inflates
//     effective memory latency with an M/M/1-style queueing factor
//     (which flattens effective IPS). It multiplies two such factors:
//     the domain's, from the co-runners' traffic, and, when the spec
//     sets bus=<GB/s>, the bus's, from every core's traffic.
//
// The domain terms deliberately exclude the core's own footprint: they
// model interference, and a thread cannot interfere with itself. A
// thread alone in its domain on a machine without a bus sees
// MissScale == LatScale == 1 exactly, so a contention-enabled run with
// zero co-runner overlap is byte-identical to the pre-contention model
// (the invariant exp.TestAblationContention pins). The bus term counts
// a core's own traffic too: a bus is one queue every request waits in,
// so one streaming core alone loads it (DESIGN.md §15).
//
// The model is deterministic: per-core EWMAs updated at slice end and
// over every quiescent interval in event order, no randomness, no
// wall-clock, and a fixed per-domain array layout allocated at
// construction — nothing on the epoch hot path allocates (the sbvet
// hotpath analyzer and TestEpochHotAllocsPinned both cover it).
package contention

import (
	"fmt"
	"strings"

	"smartbalance/internal/arch"
	"smartbalance/internal/param"
)

// Model constants.
const (
	// ewmaTauNs is the footprint-EWMA window: 5 ms, slow against a
	// slice, fast against an epoch.
	ewmaTauNs = 5e6
	// DefaultMissSlope is the miss-rate inflation per unit of co-runner
	// pressure (overlapKB / domainLLCKB).
	DefaultMissSlope = 0.9
	// DefaultPressureCap bounds the pressure term: beyond ~2x
	// oversubscription extra co-runner footprint cannot evict more.
	DefaultPressureCap = 2.0
	// DefaultBWGBps is the per-domain memory bandwidth when the spec
	// does not override it (a mobile-class LPDDR channel per cluster).
	DefaultBWGBps = 8.0
	// maxBWUtil caps each queueing factor at 10x.
	maxBWUtil = 0.9
)

// specOn is the leading keyword of an enabled spec; optional
// comma-separated key=value overrides follow it.
const specOn = "on"

// Spec is the canonical, serialisable configuration of the contention
// model — the sweep/hunt scenario axis. The zero Spec is disabled.
type Spec struct {
	// Enabled turns the model on.
	Enabled bool `json:"enabled,omitempty"`
	// LLCKB, when positive, overrides every domain's pooled LLC
	// capacity (KB); zero derives it from the platform topology.
	LLCKB float64 `json:"llc_kb,omitempty"`
	// BWGBps, when positive, overrides the per-domain memory bandwidth;
	// zero selects DefaultBWGBps.
	BWGBps float64 `json:"bw_gbps,omitempty"`
	// BusGBps, when positive, adds the chip-wide memory bus: one
	// queue on the sum of every core's miss traffic; zero means no bus.
	BusGBps float64 `json:"bus_gbps,omitempty"`
	// MissSlope, when positive, overrides DefaultMissSlope.
	MissSlope float64 `json:"miss_slope,omitempty"`
}

// String renders the canonical spec: "" when disabled, "on" for pure
// defaults, and "on,key=val,..." with overrides in fixed order and
// shortest-exact floats — ParseSpec(s.String()) == s for every valid
// spec, mirroring the synth: and fault-plan grammars.
func (s Spec) String() string {
	if !s.Enabled {
		return ""
	}
	f := param.Float
	out := specOn
	if s.LLCKB > 0 {
		out += ",llc=" + f(s.LLCKB)
	}
	if s.BWGBps > 0 {
		out += ",bw=" + f(s.BWGBps)
	}
	if s.BusGBps > 0 {
		out += ",bus=" + f(s.BusGBps)
	}
	if s.MissSlope > 0 {
		out += ",slope=" + f(s.MissSlope)
	}
	return out
}

// Validate checks the spec's value domains.
func (s Spec) Validate() error {
	if !s.Enabled {
		if s.LLCKB != 0 || s.BWGBps != 0 || s.BusGBps != 0 || s.MissSlope != 0 { //sbvet:allow floateq(zero means "unset": overrides are rejected only when a literal zero value was left untouched)
			return fmt.Errorf("contention: disabled spec carries overrides")
		}
		return nil
	}
	// Each check is written as a negated "within" so NaN, for which
	// every comparison is false, fails it.
	switch {
	case !(s.LLCKB >= 0 && s.LLCKB <= 1<<20):
		return fmt.Errorf("contention: llc override %g outside [0, 1048576] KB", s.LLCKB)
	case !(s.BWGBps >= 0 && s.BWGBps <= 1024):
		return fmt.Errorf("contention: bandwidth override %g outside [0, 1024] GB/s", s.BWGBps)
	case !(s.BusGBps >= 0 && s.BusGBps <= 1024):
		return fmt.Errorf("contention: bus bandwidth %g outside [0, 1024] GB/s", s.BusGBps)
	case !(s.MissSlope >= 0 && s.MissSlope <= 8):
		return fmt.Errorf("contention: miss slope %g outside [0, 8]", s.MissSlope)
	}
	return nil
}

// ParseSpec parses the canonical contention spec grammar. "", "none",
// and "off" mean disabled; "on" enables the defaults; overrides follow
// as comma-separated key=value pairs (llc, bw, bus, slope), read by
// param.Parse. Unknown keys are errors.
func ParseSpec(spec string) (Spec, error) {
	var s Spec
	switch spec {
	case "", "none", "off":
		return s, nil
	}
	mode, params, _ := strings.Cut(spec, ",")
	if mode != specOn {
		return s, fmt.Errorf("contention: spec %q must start with %q (or be empty/none/off)", spec, specOn)
	}
	s.Enabled = true
	if err := param.Parse(params, ",", map[string]any{
		"llc": &s.LLCKB, "bw": &s.BWGBps, "bus": &s.BusGBps, "slope": &s.MissSlope,
	}); err != nil {
		return s, fmt.Errorf("contention: %w", err)
	}
	return s, s.Validate()
}

// missSlope resolves the spec's effective slope.
func (s Spec) missSlope() float64 {
	if s.MissSlope > 0 {
		return s.MissSlope
	}
	return DefaultMissSlope
}

// bwGBps resolves the spec's effective per-domain bandwidth.
func (s Spec) bwGBps() float64 {
	if s.BWGBps > 0 {
		return s.BWGBps
	}
	return DefaultBWGBps
}

// Model is the runtime shared-resource state of one machine: the LLC
// domain partition plus per-core and per-domain EWMAs of working-set
// footprint and miss traffic. All arrays are fixed at construction;
// RecordSlice and the factor queries allocate nothing.
type Model struct {
	spec Spec

	// domainOf maps core id -> domain index.
	domainOf []int32
	// domLLCKB and domBWGBps are the per-domain capacities.
	domLLCKB  []float64
	domBWGBps []float64

	// coreWsKB and coreBwBPNs are per-core EWMAs of the resident data
	// working set (KB) and L2-miss traffic (bytes per ns == GB/s).
	coreWsKB   []float64
	coreBwBPNs []float64
	// domWsKB and domBwBPNs mirror the per-core EWMAs summed per
	// domain, and chipBwBPNs the traffic EWMAs summed over the chip
	// (the bus's load), maintained incrementally so the factor queries
	// are O(1).
	domWsKB    []float64
	domBwBPNs  []float64
	chipBwBPNs float64
}

// NewModel builds the model for a platform: domains from the
// arch.LLCDomains partition, capacities from the spec (or derived).
// Returns nil for a disabled spec — a nil *Model is the "no
// contention" model everywhere it is consumed.
func NewModel(p *arch.Platform, spec Spec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Enabled {
		return nil, nil
	}
	if p == nil || p.NumCores() == 0 {
		return nil, fmt.Errorf("contention: nil or empty platform")
	}
	doms := arch.LLCDomains(p)
	m := &Model{
		spec:       spec,
		domainOf:   make([]int32, p.NumCores()),
		domLLCKB:   make([]float64, len(doms)),
		domBWGBps:  make([]float64, len(doms)),
		coreWsKB:   make([]float64, p.NumCores()),
		coreBwBPNs: make([]float64, p.NumCores()),
		domWsKB:    make([]float64, len(doms)),
		domBwBPNs:  make([]float64, len(doms)),
	}
	for d, dom := range doms {
		llc := dom.LLCKB
		if spec.LLCKB > 0 {
			llc = spec.LLCKB
		}
		m.domLLCKB[d] = llc
		m.domBWGBps[d] = spec.bwGBps()
		for _, c := range dom.Cores {
			m.domainOf[c] = int32(d)
		}
	}
	return m, nil
}

// Spec returns the spec the model was built from.
func (m *Model) Spec() Spec { return m.spec }

// NumDomains returns the number of LLC domains.
func (m *Model) NumDomains() int { return len(m.domLLCKB) }

// NumCores returns the number of cores the model covers.
func (m *Model) NumCores() int { return len(m.domainOf) }

// DomainOf returns core c's domain index.
func (m *Model) DomainOf(c arch.CoreID) int { return int(m.domainOf[c]) }

// DomainLLCKB returns domain d's pooled LLC capacity in KB.
func (m *Model) DomainLLCKB(d int) float64 { return m.domLLCKB[d] }

// DomainBWGBps returns domain d's memory bandwidth in GB/s.
func (m *Model) DomainBWGBps(d int) float64 { return m.domBWGBps[d] }

// MissSlope returns the effective miss-inflation slope.
func (m *Model) MissSlope() float64 { return m.spec.missSlope() }

// PressureCap returns the pressure clamp.
func (m *Model) PressureCap() float64 { return DefaultPressureCap }

// MaxBWUtil returns the bandwidth-utilisation clamp.
func (m *Model) MaxBWUtil() float64 { return maxBWUtil }

// MissScale returns the L2-miss inflation factor for core c: 1 plus
// the slope times the co-runner pressure (neighbours' pooled working
// set over the domain LLC), clamped. Exactly 1 when c has no co-runner
// footprint.
func (m *Model) MissScale(c arch.CoreID) float64 {
	d := m.domainOf[c]
	overlapKB := m.domWsKB[d] - m.coreWsKB[c]
	if overlapKB <= 0 {
		return 1
	}
	pressure := overlapKB / m.domLLCKB[d]
	if pressure > DefaultPressureCap {
		pressure = DefaultPressureCap
	}
	return 1 + m.spec.missSlope()*pressure
}

// LatScale returns the memory-latency inflation factor for core c: the
// domain's queueing factor on the co-runners' miss traffic over the
// domain bandwidth, times, with a bus, the bus's queueing factor on
// the whole chip's miss traffic over the bus bandwidth. Exactly 1 when
// c's co-runners generate no traffic and there is no bus.
func (m *Model) LatScale(c arch.CoreID) float64 {
	d := m.domainOf[c]
	f := queueing(m.domBwBPNs[d]-m.coreBwBPNs[c], m.domBWGBps[d])
	if m.spec.BusGBps > 0 {
		f *= queueing(m.chipBwBPNs, m.spec.BusGBps)
	}
	return f
}

// queueing is the M/M/1-style factor 1/(1-util) of a traffic demand
// over a bandwidth, util clamped at maxBWUtil; exactly 1 when there is
// no demand.
func queueing(demand, bwGBps float64) float64 {
	if demand <= 0 {
		return 1
	}
	util := demand / bwGBps
	if util > maxBWUtil {
		util = maxBWUtil
	}
	return 1 / (1 - util)
}

// RecordSlice folds one executed slice on core c into the EWMAs: wsKB
// is the resident data working set of the phase that ran, missBytes the
// slice's L2-miss traffic. Called by the machine at slice end, and for
// every quiescent interval with zero footprint and traffic (so an
// emptied core's last working set decays away), in event order — the
// model is a pure function of the slice and sleep sequence.
func (m *Model) RecordSlice(c arch.CoreID, durNs int64, wsKB, missBytes float64) {
	if durNs <= 0 {
		return
	}
	w := float64(durNs) / (float64(durNs) + ewmaTauNs)
	d := m.domainOf[c]

	old := m.coreWsKB[c]
	next := (1-w)*old + w*wsKB
	m.coreWsKB[c] = next
	m.domWsKB[d] += next - old

	old = m.coreBwBPNs[c]
	next = (1-w)*old + w*(missBytes/float64(durNs))
	m.coreBwBPNs[c] = next
	delta := next - old
	m.domBwBPNs[d] += delta
	m.chipBwBPNs += delta
}

// MaxPressure returns the largest per-domain LLC pressure (pooled
// working set over capacity) — the telemetry gauge value.
func (m *Model) MaxPressure() float64 {
	var max float64
	for d := range m.domWsKB {
		if p := m.domWsKB[d] / m.domLLCKB[d]; p > max {
			max = p
		}
	}
	return max
}

// MaxBWUtilization returns the largest per-domain bandwidth
// utilisation (pooled miss traffic over bandwidth), unclamped — the
// telemetry gauge value.
func (m *Model) MaxBWUtilization() float64 {
	var max float64
	for d := range m.domBwBPNs {
		if u := m.domBwBPNs[d] / m.domBWGBps[d]; u > max {
			max = u
		}
	}
	return max
}
