package sweep

import (
	"encoding/json"
	"errors"
	"fmt"

	"smartbalance/internal/contention"
	"smartbalance/internal/fault"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/scenario"
	"smartbalance/internal/telemetry"
)

// SchemaVersion participates in every scenario fingerprint. Bump it
// whenever simulation semantics change (kernel, models, balancers), so
// results cached by an older build are never served for a newer one.
const SchemaVersion = "sbsweep-v2"

// Scenario is one cell of a design-space sweep: a platform, a
// balancing policy, a workload, and the seed driving every source of
// randomness in the run. Platform, workload and balancer names are
// internal/scenario's vocabulary, plus one sweep-only balancer,
// "smartbalance-blind": the SmartBalance controller denied the
// contention topology (the A14 baseline).
type Scenario struct {
	Platform   string `json:"platform"`
	Balancer   string `json:"balancer"`
	Workload   string `json:"workload"`
	Threads    int    `json:"threads"`
	Seed       uint64 `json:"seed"`
	DurationNs int64  `json:"duration_ns"`
	// Fault is a fault-injection plan in fault.ParsePlan's spec grammar
	// (e.g. "drop=0.3;migfail=0.1"); empty or "none" runs clean. The
	// omitempty tag keeps clean scenarios' fingerprints — and therefore
	// their cache entries — identical to builds that predate the axis.
	Fault string `json:"fault,omitempty"`
	// Contention is a shared-resource model spec in
	// contention.ParseSpec's grammar ("on" or
	// "on,llc=...,bw=...,slope=..."); empty or "none" runs with the
	// uncontended machine. As with Fault, omitempty keeps uncontended
	// fingerprints identical to pre-axis builds.
	Contention string `json:"contention,omitempty"`
}

// Key canonically identifies the scenario within a sweep. Clean
// scenarios keep the historical key shape; a fault plan appends one
// segment.
func (s Scenario) Key() string {
	key := fmt.Sprintf("%s/%s/%s/t%d/s%d/d%dms",
		s.Platform, s.Balancer, s.Workload, s.Threads, s.Seed, s.DurationNs/1e6)
	if s.Fault != "" && s.Fault != "none" {
		key += "/f[" + s.Fault + "]"
	}
	if s.Contention != "" && s.Contention != "none" {
		key += "/c[" + s.Contention + "]"
	}
	return key
}

// validate rejects statically malformed scenarios (name resolution
// happens at run time, inside the job, so one bad name degrades to an
// error-valued result rather than aborting grid expansion).
func (s Scenario) validate() error {
	switch {
	case s.Platform == "":
		return errors.New("sweep: scenario without a platform")
	case s.Balancer == "":
		return errors.New("sweep: scenario without a balancer")
	case s.Workload == "":
		return errors.New("sweep: scenario without a workload")
	case s.Threads < 1:
		return fmt.Errorf("sweep: invalid thread count %d", s.Threads)
	case s.DurationNs <= 0:
		return fmt.Errorf("sweep: non-positive duration %d", s.DurationNs)
	}
	if _, err := fault.ParsePlan(s.Fault); err != nil {
		return fmt.Errorf("sweep: scenario fault plan: %w", err)
	}
	if _, err := contention.ParseSpec(s.Contention); err != nil {
		return fmt.Errorf("sweep: scenario contention spec: %w", err)
	}
	return nil
}

// Grid is a scenario specification: the cross product of its axes.
type Grid struct {
	Platforms  []string
	Balancers  []string
	Workloads  []string
	Threads    []int
	Seeds      []uint64
	DurationNs int64
	// Faults is the optional fault-plan axis (fault.ParsePlan specs);
	// empty expands as a single clean cell.
	Faults []string
	// Contentions is the optional shared-resource axis
	// (contention.ParseSpec specs); empty expands as a single
	// uncontended cell.
	Contentions []string
}

// Expand materialises the grid in canonical job order — platform-major,
// then balancer, workload, thread count, seed — the order every report
// lists results in, independent of execution interleaving.
func (g Grid) Expand() ([]Scenario, error) {
	if len(g.Platforms) == 0 || len(g.Balancers) == 0 || len(g.Workloads) == 0 ||
		len(g.Threads) == 0 || len(g.Seeds) == 0 {
		return nil, errors.New("sweep: every grid axis needs at least one value")
	}
	faults := g.Faults
	if len(faults) == 0 {
		faults = []string{""}
	}
	contentions := g.Contentions
	if len(contentions) == 0 {
		contentions = []string{""}
	}
	var scs []Scenario
	for _, plat := range g.Platforms {
		for _, bal := range g.Balancers {
			for _, wl := range g.Workloads {
				for _, tc := range g.Threads {
					for _, seed := range g.Seeds {
						for _, fp := range faults {
							if fp == "none" || fp == "off" {
								fp = ""
							}
							for _, cp := range contentions {
								if cp == "none" || cp == "off" {
									cp = ""
								}
								sc := Scenario{
									Platform:   plat,
									Balancer:   bal,
									Workload:   wl,
									Threads:    tc,
									Seed:       seed,
									DurationNs: g.DurationNs,
									Fault:      fp,
									Contention: cp,
								}
								if err := sc.validate(); err != nil {
									return nil, err
								}
								scs = append(scs, sc)
							}
						}
					}
				}
			}
		}
	}
	return scs, nil
}

// Outcome is one scenario's measured result — the payload stored in the
// cache and emitted in reports. Fields are fixed-order struct members
// so the canonical JSON encoding is stable.
type Outcome struct {
	Scenario     Scenario `json:"scenario"`
	EnergyEff    float64  `json:"ips_per_watt"`
	IPS          float64  `json:"ips"`
	PowerW       float64  `json:"power_w"`
	EnergyJ      float64  `json:"energy_j"`
	Instructions uint64   `json:"instructions"`
	Migrations   int      `json:"migrations"`
	Epochs       int      `json:"epochs"`
}

// RunScenario executes one scenario end to end: resolve the platform,
// workload, and balancer, simulate for the scenario's duration through
// scenario.Run, check kernel invariants, and distill the run
// statistics. A non-nil tel is attached to the kernel and the balancer
// (when it accepts one), so callers can inspect its anomaly records
// alongside the outcome. Observation never changes the
// simulation — the outcome is byte-identical with tel nil — so
// observed runs share the unobserved runs' cache entries safely.
func RunScenario(sc Scenario, tel *telemetry.Collector) (*Outcome, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	plat, err := scenario.Platform(sc.Platform)
	if err != nil {
		return nil, err
	}
	specs, err := scenario.Workload(sc.Workload, sc.Threads, sc.Seed)
	if err != nil {
		return nil, err
	}
	// "-blind" runs the same controller on the same contended machine;
	// Run just never calls SetContention on it.
	balName, aware := sc.Balancer, true
	if balName == "smartbalance-blind" {
		balName, aware = "smartbalance", false
	}
	bal, err := scenario.Balancer(balName, plat, sc.Seed, sc.Seed)
	if err != nil {
		return nil, err
	}
	cspec, err := contention.ParseSpec(sc.Contention)
	if err != nil {
		return nil, err
	}
	cfg := kernel.DefaultConfig()
	cfg.Seed = sc.Seed
	plan, err := fault.ParsePlan(sc.Fault)
	if err != nil {
		return nil, err
	}
	if !plan.IsZero() {
		inj, err := fault.New(plan, fault.SeedFor(sc.Seed))
		if err != nil {
			return nil, err
		}
		cfg.Faults = inj
	}
	if tel != nil {
		tel.SetMeta("scenario", sc.Key())
	}
	st, err := scenario.Run(plat, bal, specs, sc.DurationNs, cfg, machine.Options{Contention: cspec}, aware, tel)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Scenario:     sc,
		EnergyEff:    st.EnergyEfficiency(),
		IPS:          st.IPS(),
		PowerW:       st.PowerW(),
		EnergyJ:      st.TotalEnergyJ(),
		Instructions: st.TotalInstructions(),
		Migrations:   st.Migrations,
		Epochs:       st.Epochs,
	}, nil
}

// Tasks converts scenarios into engine tasks. salt joins the schema
// version in every fingerprint — callers pass a build identifier there
// when they want cache isolation between builds; tests use it to force
// misses.
func Tasks(scs []Scenario, salt string) ([]Task, error) {
	version := SchemaVersion
	if salt != "" {
		version += "|" + salt
	}
	tasks := make([]Task, len(scs))
	for i := range scs {
		sc := scs[i]
		fp, err := Fingerprint(version, sc)
		if err != nil {
			return nil, err
		}
		tasks[i] = Task{
			Key:         sc.Key(),
			Fingerprint: fp,
			Run: func() ([]byte, error) {
				out, err := RunScenario(sc, nil)
				if err != nil {
					return nil, err
				}
				return json.Marshal(out)
			},
		}
	}
	return tasks, nil
}

// DecodeOutcome parses a task result payload produced by Tasks.
func DecodeOutcome(data []byte) (*Outcome, error) {
	var out Outcome
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("sweep: undecodable outcome: %w", err)
	}
	return &out, nil
}
