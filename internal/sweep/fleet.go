package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"smartbalance/internal/fleet"
	"smartbalance/internal/tablefmt"
)

// Fleet sweeps: the inter-node tier's design space — node count x
// dispatch policy x arrival shape x seed — on the same deterministic
// engine, cache, and reporting discipline as the intra-node scenario
// sweeps. The fleet tier steps its own nodes serially inside each job
// (Workers = 1): the sweep engine already parallelises across cells,
// and nesting pools would oversubscribe without changing any result.

// FleetSchemaVersion participates in every fleet-cell fingerprint,
// separately versioned from the scenario schema so either tier can
// evolve without invalidating the other's cache. Bump it whenever a
// fleet run's outputs change.
const FleetSchemaVersion = "sbfleet-v2"

// FleetScenario is one cell of a fleet sweep.
type FleetScenario struct {
	Nodes      int    `json:"nodes"`
	Profile    string `json:"profile"`
	Balancer   string `json:"balancer"`
	Policy     string `json:"policy"`
	Arrival    string `json:"arrival"`
	Seed       uint64 `json:"seed"`
	DurationNs int64  `json:"duration_ns"`
}

// Key canonically identifies the cell within a sweep.
func (s FleetScenario) Key() string {
	return fmt.Sprintf("fleet/n%d/%s/%s/%s/%s/s%d/d%dms",
		s.Nodes, s.Profile, s.Balancer, s.Policy, s.Arrival, s.Seed, s.DurationNs/1e6)
}

// validate rejects statically malformed cells.
func (s FleetScenario) validate() error {
	switch {
	case s.Nodes < 1:
		return fmt.Errorf("sweep: fleet cell with %d nodes", s.Nodes)
	case s.Profile == "":
		return errors.New("sweep: fleet cell without a profile")
	case s.Balancer == "":
		return errors.New("sweep: fleet cell without a balancer")
	case s.Policy == "":
		return errors.New("sweep: fleet cell without a policy")
	case s.Arrival == "":
		return errors.New("sweep: fleet cell without an arrival spec")
	case s.DurationNs <= 0:
		return fmt.Errorf("sweep: non-positive fleet duration %d", s.DurationNs)
	}
	if _, err := fleet.ParsePolicy(s.Policy); err != nil {
		return err
	}
	return nil
}

// FleetGrid is a fleet sweep specification: the cross product of its
// axes.
type FleetGrid struct {
	Nodes      []int
	Profiles   []string
	Balancers  []string
	Policies   []string
	Arrivals   []string
	Seeds      []uint64
	DurationNs int64
}

// Expand materialises the grid in canonical job order — node-count
// major, then profile, balancer, policy, arrival, seed.
func (g FleetGrid) Expand() ([]FleetScenario, error) {
	if len(g.Nodes) == 0 || len(g.Profiles) == 0 || len(g.Balancers) == 0 ||
		len(g.Policies) == 0 || len(g.Arrivals) == 0 || len(g.Seeds) == 0 {
		return nil, errors.New("sweep: every fleet grid axis needs at least one value")
	}
	var scs []FleetScenario
	for _, n := range g.Nodes {
		for _, prof := range g.Profiles {
			for _, bal := range g.Balancers {
				for _, pol := range g.Policies {
					for _, arr := range g.Arrivals {
						for _, seed := range g.Seeds {
							sc := FleetScenario{
								Nodes:      n,
								Profile:    prof,
								Balancer:   bal,
								Policy:     pol,
								Arrival:    arr,
								Seed:       seed,
								DurationNs: g.DurationNs,
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
	return scs, nil
}

// FleetOutcome is one fleet cell's measured result.
type FleetOutcome struct {
	Scenario         FleetScenario `json:"scenario"`
	Requests         int           `json:"requests"`
	Completed        int           `json:"completed"`
	InFlight         int           `json:"in_flight"`
	EnergyJ          float64       `json:"energy_j"`
	JoulesPerRequest float64       `json:"joules_per_request"`
	P50Ms            float64       `json:"p50_ms"`
	P95Ms            float64       `json:"p95_ms"`
	P99Ms            float64       `json:"p99_ms"`
	MaxMs            float64       `json:"max_ms"`
}

// RunFleetScenario executes one fleet cell end to end, stepping its
// nodes on workers goroutines. The fleet's determinism contract says
// the count never changes any output — the adversarial hunt runs the
// same cell under different counts precisely to check that claim, so
// the knob must be reachable from the sweep layer.
func RunFleetScenario(sc FleetScenario, workers int) (*FleetOutcome, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	cfg := fleet.DefaultConfig()
	cfg.Nodes = sc.Nodes
	cfg.Profile = sc.Profile
	cfg.Balancer = sc.Balancer
	cfg.Policy = sc.Policy
	cfg.Arrival = sc.Arrival
	cfg.Seed = sc.Seed
	cfg.DurationNs = sc.DurationNs
	cfg.Workers = workers
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := f.Run()
	if err != nil {
		return nil, err
	}
	return &FleetOutcome{
		Scenario:         sc,
		Requests:         res.Requests,
		Completed:        res.Completed,
		InFlight:         res.InFlight,
		EnergyJ:          res.EnergyJ,
		JoulesPerRequest: res.JoulesPerRequest,
		P50Ms:            res.P50Ms,
		P95Ms:            res.P95Ms,
		P99Ms:            res.P99Ms,
		MaxMs:            res.MaxMs,
	}, nil
}

// FleetTasks converts fleet cells into engine tasks, fingerprinted
// under the fleet schema.
func FleetTasks(scs []FleetScenario, salt string) ([]Task, error) {
	version := FleetSchemaVersion
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
				out, err := RunFleetScenario(sc, 1)
				if err != nil {
					return nil, err
				}
				return json.Marshal(out)
			},
		}
	}
	return tasks, nil
}

// DecodeFleetOutcome parses a task result payload produced by
// FleetTasks.
func DecodeFleetOutcome(data []byte) (*FleetOutcome, error) {
	var out FleetOutcome
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("sweep: undecodable fleet outcome: %w", err)
	}
	return &out, nil
}

// RenderFleetTable renders fleet results as a text table.
func RenderFleetTable(w io.Writer, results []Result) error {
	tb := tablefmt.New("Fleet sweep",
		"scenario", "req", "done", "J/req", "p50 ms", "p99 ms", "energy J", "status")
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			tb.AddRow(r.Key, "-", "-", "-", "-", "-", "-", "ERROR: "+r.Err.Error())
			continue
		}
		out, err := DecodeFleetOutcome(r.Data)
		if err != nil {
			return fmt.Errorf("sweep: result %q: %w", r.Key, err)
		}
		tb.AddRow(r.Key,
			fmt.Sprintf("%d", out.Requests),
			fmt.Sprintf("%d", out.Completed),
			tablefmt.FormatFloat(out.JoulesPerRequest),
			tablefmt.FormatFloat(out.P50Ms),
			tablefmt.FormatFloat(out.P99Ms),
			tablefmt.FormatFloat(out.EnergyJ),
			"ok")
	}
	return tb.Render(w)
}
