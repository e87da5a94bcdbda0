package hunt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"smartbalance/internal/param"
	"smartbalance/internal/sweep"
	"smartbalance/internal/telemetry"
)

// Falsification objectives: the claims a counterexample breaks. A
// violation's Score is a normalized margin — >= 0 means the objective
// is violated (a counterexample), < 0 measures how close the candidate
// came, which is the gradient the evolutionary loop climbs.
const (
	// ObjEELoss: SmartBalance's energy efficiency falls more than
	// Margin below a baseline balancer on the same scenario — the
	// paper's headline claim inverted.
	ObjEELoss = "ee-loss"
	// ObjAnomaly: an anomaly trigger fires during the SmartBalance
	// run (negative EE gain, degraded epochs, refused-migration burst).
	ObjAnomaly = "anomaly"
	// ObjEnergySLO: fleet joules-per-request exceeds the energy SLO.
	ObjEnergySLO = "energy-slo"
	// ObjP99SLO: fleet p99 latency exceeds the latency SLO.
	ObjP99SLO = "p99-slo"
	// ObjPolicyLoss: the energy dispatch policy spends more
	// joules-per-request than round-robin on the same traffic — the
	// fleet tier's reason to exist, inverted.
	ObjPolicyLoss = "policy-loss"
	// ObjDivergence: the same fleet cell renders different outcomes
	// under different -workers settings — a determinism-contract break.
	ObjDivergence = "workers-divergence"
	// ObjContentionLoss: on a contended machine, the contention-aware
	// controller loses energy efficiency to its contention-blind twin —
	// the interference term made placement worse, inverting the A14
	// claim. Scored only when the genome enables contention.
	ObjContentionLoss = "contention-loss"
)

// Objectives lists every objective in canonical report order.
var Objectives = []string{ObjEELoss, ObjAnomaly, ObjContentionLoss, ObjEnergySLO, ObjP99SLO, ObjPolicyLoss, ObjDivergence}

// SLO holds the service-level objectives the fleet-tier search tries
// to break.
type SLO struct {
	// P99Ms is the p99 request-latency ceiling in milliseconds.
	P99Ms float64 `json:"p99_ms"`
	// JPR is the joules-per-completed-request ceiling.
	JPR float64 `json:"jpr"`
}

// DefaultSLO is loose enough that the canonical healthy scenarios pass
// with room, tight enough that the hunt can reach violations inside a
// small search budget.
func DefaultSLO() SLO { return SLO{P99Ms: 600, JPR: 0.06} }

// Violation is one objective's outcome for one candidate.
type Violation struct {
	Objective string  `json:"objective"`
	Score     float64 `json:"score"`
	Detail    string  `json:"detail"`
}

// Evaluation is one candidate's full scoring.
type Evaluation struct {
	Cand Candidate
	// Violations holds every objective applicable to the tier, in
	// canonical order.
	Violations []Violation
	// Fitness is the maximum violation score — the scalar the
	// selection step ranks on.
	Fitness float64
	// Err reports an unevaluable candidate (a simulation error);
	// fitness is floored and violations are nil.
	Err error
}

// errFitness floors the fitness of unevaluable candidates below any
// real score.
const errFitness = -1e9

// Schema versions for the hunt's own cached task payloads. The
// baseline node runs deliberately reuse sweep.SchemaVersion
// fingerprints — they are ordinary scenario runs, shared with every
// other sweep consumer; these versions cover only payload shapes that
// exist solely for the hunt. A fleet cell is an ordinary fleet run
// keyed with its worker count, so its version carries
// sweep.FleetSchemaVersion: a change to fleet outputs re-keys it too.
const (
	obsSchemaVersion       = "sbhunt-obs-v2"
	fleetHuntSchemaVersion = "sbhunt-fleet-v1|" + sweep.FleetSchemaVersion
)

// obsPayload is the observed-run task payload: the ordinary outcome
// plus the distinct anomaly reasons the run's triggers recorded.
type obsPayload struct {
	Outcome   *sweep.Outcome `json:"outcome"`
	Anomalies []string       `json:"anomalies,omitempty"`
}

// fleetCell fingerprints a fleet run together with its worker count,
// so the divergence check's arms occupy distinct cache slots.
type fleetCell struct {
	Scenario sweep.FleetScenario `json:"scenario"`
	Workers  int                 `json:"workers"`
}

// divergenceWorkers is the parallel arm of the workers-divergence
// check (the serial arm is 1).
const divergenceWorkers = 3

// Evaluator scores candidates against the objectives. It fans every
// candidate's simulation subtasks through the sweep engine — parallel
// across subtasks, results in canonical order, cached by content
// address — so evaluation is deterministic for any Workers and
// mutation loops re-hit cached cells instead of re-simulating.
type Evaluator struct {
	SLO     SLO
	Margin  float64
	Cache   *sweep.Cache
	Workers int
}

// subtask names one simulation a candidate needs.
type subtask struct {
	slot string // sb | vanilla | gts | w1 | wN | rr
	task sweep.Task
}

// Evaluate scores one candidate.
func (e *Evaluator) Evaluate(c Candidate) Evaluation {
	return e.EvaluateAll([]Candidate{c})[0]
}

// EvaluateAll scores a population. Subtasks are deduplicated by key
// across candidates (mutations frequently share arms with their
// parents), executed once, and fanned back out.
func (e *Evaluator) EvaluateAll(cands []Candidate) []Evaluation {
	evals := make([]Evaluation, len(cands))
	subs := make([][]subtask, len(cands))
	var tasks []sweep.Task
	index := map[string]int{} // task key -> index into tasks
	for i, c := range cands {
		evals[i].Cand = c
		evals[i].Fitness = errFitness
		if err := c.Validate(); err != nil {
			evals[i].Err = err
			continue
		}
		st := candidateSubtasks(c)
		subs[i] = st
		for _, s := range st {
			if _, ok := index[s.task.Key]; !ok {
				index[s.task.Key] = len(tasks)
				tasks = append(tasks, s.task)
			}
		}
	}
	results, err := sweep.Execute(tasks, sweep.Options{Workers: e.Workers, Cache: e.Cache})
	if err != nil {
		// Only malformed task lists land here, and the keys above are
		// unique by construction; surface the error on every candidate.
		for i := range evals {
			if evals[i].Err == nil {
				evals[i].Err = err
			}
		}
		return evals
	}
	for i := range cands {
		if evals[i].Err != nil {
			continue
		}
		payload := map[string][]byte{}
		var taskErr error
		for _, s := range subs[i] {
			r := results[index[s.task.Key]]
			if r.Err != nil && taskErr == nil {
				taskErr = fmt.Errorf("hunt: subtask %s: %w", s.slot, r.Err)
			}
			payload[s.slot] = r.Data
		}
		if taskErr != nil {
			evals[i].Err = taskErr
			continue
		}
		v, err := score(cands[i], payload, e.SLO, e.Margin)
		if err != nil {
			evals[i].Err = err
			continue
		}
		evals[i].Violations = v
		evals[i].Fitness = errFitness
		for _, violation := range v {
			if violation.Score > evals[i].Fitness {
				evals[i].Fitness = violation.Score
			}
		}
	}
	return evals
}

// candidateSubtasks builds the simulation arms a candidate needs.
func candidateSubtasks(c Candidate) []subtask {
	switch c.Tier {
	case TierNode:
		return nodeSubtasks(c.Node)
	case TierFleet:
		return fleetSubtasks(c.Fleet)
	}
	return nil
}

// scenario materialises the node genome's SmartBalance scenario.
func (n *NodeGenome) scenario() sweep.Scenario {
	faultSpec := n.Fault.String()
	if faultSpec == "none" {
		faultSpec = ""
	}
	contSpec := n.Contention
	if contSpec == "none" || contSpec == "off" {
		contSpec = ""
	}
	return sweep.Scenario{
		Platform:   n.Platform,
		Balancer:   "smartbalance",
		Workload:   n.Synth.String(),
		Threads:    n.Threads,
		Seed:       n.Seed,
		DurationNs: n.DurationMs * 1e6,
		Fault:      faultSpec,
		Contention: contSpec,
	}
}

func nodeSubtasks(n *NodeGenome) []subtask {
	sc := n.scenario()
	obsTask := sweep.Task{Key: "hunt-obs/" + sc.Key()}
	if fp, err := sweep.Fingerprint(obsSchemaVersion, sc); err == nil {
		obsTask.Fingerprint = fp
	}
	obsTask.Run = func() ([]byte, error) {
		tel := telemetry.New()
		out, err := sweep.RunScenario(sc, tel)
		if err != nil {
			return nil, err
		}
		return json.Marshal(obsPayload{Outcome: out, Anomalies: tel.AnomalyReasons()})
	}
	subs := []subtask{{slot: "sb", task: obsTask}}
	baselines := []string{"vanilla"}
	if n.Platform == "biglittle" {
		// GTS needs exactly two core types; quad has four.
		baselines = append(baselines, "gts")
	}
	if sc.Contention != "" {
		// Contended genomes also run the blind twin: same controller,
		// same contended machine, no topology — the contention-loss arm.
		baselines = append(baselines, "smartbalance-blind")
	}
	for _, bal := range baselines {
		bsc := sc
		bsc.Balancer = bal
		// Ordinary scenario tasks, fingerprinted under the shared sweep
		// schema: baseline cells are interchangeable with any other
		// sweep's and hit the same cache entries.
		ts, err := sweep.Tasks([]sweep.Scenario{bsc}, "")
		if err != nil {
			continue
		}
		subs = append(subs, subtask{slot: bal, task: ts[0]})
	}
	return subs
}

// fleetScenario materialises the fleet genome's scenario.
func (f *FleetGenome) fleetScenario() sweep.FleetScenario {
	return sweep.FleetScenario{
		Nodes:      f.Nodes,
		Profile:    f.Profile,
		Balancer:   "smartbalance",
		Policy:     f.Policy,
		Arrival:    f.Arrival.String(),
		Seed:       f.Seed,
		DurationNs: f.DurationMs * 1e6,
	}
}

func fleetSubtasks(f *FleetGenome) []subtask {
	sc := f.fleetScenario()
	var subs []subtask
	for _, w := range []int{1, divergenceWorkers} {
		workers := w
		t := sweep.Task{Key: fmt.Sprintf("hunt-fleet/%s/w%d", sc.Key(), workers)}
		if fp, err := sweep.Fingerprint(fleetHuntSchemaVersion, fleetCell{Scenario: sc, Workers: workers}); err == nil {
			t.Fingerprint = fp
		}
		t.Run = func() ([]byte, error) {
			out, err := sweep.RunFleetScenario(sc, workers)
			if err != nil {
				return nil, err
			}
			return json.Marshal(out)
		}
		subs = append(subs, subtask{slot: fmt.Sprintf("w%d", workers), task: t})
	}
	if f.Policy == "energy" {
		rsc := sc
		rsc.Policy = "rr"
		if ts, err := sweep.FleetTasks([]sweep.FleetScenario{rsc}, ""); err == nil {
			subs = append(subs, subtask{slot: "rr", task: ts[0]})
		}
	}
	return subs
}

// score derives the tier's violations from the subtask payloads.
func score(c Candidate, payload map[string][]byte, slo SLO, margin float64) ([]Violation, error) {
	switch c.Tier {
	case TierNode:
		return scoreNode(payload, margin)
	case TierFleet:
		return scoreFleet(payload, slo, margin)
	}
	return nil, fmt.Errorf("hunt: unknown tier %q", c.Tier)
}

func scoreNode(payload map[string][]byte, margin float64) ([]Violation, error) {
	var obs obsPayload
	if err := json.Unmarshal(payload["sb"], &obs); err != nil {
		return nil, fmt.Errorf("hunt: undecodable observed payload: %w", err)
	}
	eeLoss := Violation{Objective: ObjEELoss, Score: -1, Detail: "no usable baseline"}
	var details []string
	for _, bal := range []string{"gts", "vanilla"} {
		data, ok := payload[bal]
		if !ok {
			continue
		}
		out, err := sweep.DecodeOutcome(data)
		if err != nil {
			return nil, fmt.Errorf("hunt: baseline %s: %w", bal, err)
		}
		if out.EnergyEff <= 0 {
			continue
		}
		r := obs.Outcome.EnergyEff / out.EnergyEff
		details = append(details, fmt.Sprintf("sb/%s=%s", bal, param.Float(r)))
		if s := (1 - margin) - r; s > eeLoss.Score {
			eeLoss.Score = s
		}
	}
	if len(details) > 0 {
		eeLoss.Detail = strings.Join(details, " ")
	}
	anom := Violation{Objective: ObjAnomaly, Score: -1, Detail: "clean"}
	if len(obs.Anomalies) > 0 {
		anom.Score = 1
		anom.Detail = strings.Join(obs.Anomalies, ",")
	}
	contLoss := Violation{Objective: ObjContentionLoss, Score: -1, Detail: "contention off"}
	if data, ok := payload["smartbalance-blind"]; ok {
		blind, err := sweep.DecodeOutcome(data)
		if err != nil {
			return nil, fmt.Errorf("hunt: blind baseline: %w", err)
		}
		if blind.EnergyEff > 0 {
			r := obs.Outcome.EnergyEff / blind.EnergyEff
			contLoss.Score = (1 - margin) - r
			contLoss.Detail = "aware/blind=" + param.Float(r)
		} else {
			contLoss.Detail = "blind arm without throughput"
		}
	}
	return []Violation{eeLoss, anom, contLoss}, nil
}

func scoreFleet(payload map[string][]byte, slo SLO, margin float64) ([]Violation, error) {
	w1, err := sweep.DecodeFleetOutcome(payload["w1"])
	if err != nil {
		return nil, fmt.Errorf("hunt: undecodable fleet outcome: %w", err)
	}
	energy := Violation{Objective: ObjEnergySLO, Score: -1, Detail: "no completions"}
	if w1.Completed > 0 {
		energy.Score = (w1.JoulesPerRequest - slo.JPR) / slo.JPR
		energy.Detail = fmt.Sprintf("jpr=%s slo=%s", param.Float(w1.JoulesPerRequest), param.Float(slo.JPR))
	}
	p99 := Violation{
		Objective: ObjP99SLO,
		Score:     (w1.P99Ms - slo.P99Ms) / slo.P99Ms,
		Detail:    fmt.Sprintf("p99=%sms slo=%sms", param.Float(w1.P99Ms), param.Float(slo.P99Ms)),
	}
	policy := Violation{Objective: ObjPolicyLoss, Score: -1, Detail: "policy!=energy"}
	if rrData, ok := payload["rr"]; ok {
		rr, err := sweep.DecodeFleetOutcome(rrData)
		if err != nil {
			return nil, fmt.Errorf("hunt: undecodable rr baseline: %w", err)
		}
		if rr.Completed > 0 && rr.JoulesPerRequest > 0 && w1.Completed > 0 {
			r := w1.JoulesPerRequest / rr.JoulesPerRequest
			policy.Score = r - (1 + margin)
			policy.Detail = fmt.Sprintf("energy/rr=%s", param.Float(r))
		} else {
			policy.Detail = "rr baseline without completions"
		}
	}
	div := Violation{Objective: ObjDivergence, Score: -1, Detail: fmt.Sprintf("w1==w%d", divergenceWorkers)}
	if !bytes.Equal(payload["w1"], payload[fmt.Sprintf("w%d", divergenceWorkers)]) {
		div.Score = 1
		div.Detail = fmt.Sprintf("w1!=w%d", divergenceWorkers)
	}
	return []Violation{energy, p99, policy, div}, nil
}
