package core

import (
	"smartbalance/internal/hpc"
	"smartbalance/internal/kernel"
)

// OracleBalance is the sampling-based upper bound the paper's Section
// 4.2.2 contrasts prediction against: instead of predicting each
// thread's behaviour on other core types from one measurement, it reads
// the exact model-evaluated throughput/power matrices ("as if every
// thread had been sampled on every core type, at zero cost") and runs
// the same Algorithm 1 optimiser on them.
//
// On real hardware this policy is unimplementable without the sampling
// overhead the paper rejects; here it bounds how much the predictor's
// error costs — the prediction-vs-oracle ablation.
type OracleBalance struct {
	cfg    Config
	epochs int
}

// NewOracle builds an oracle-matrix balancer with the given optimiser
// configuration.
func NewOracle(cfg Config) (*OracleBalance, error) {
	acfg := epochAnneal(cfg.Anneal, 1, 1, 0)
	if err := acfg.Validate(); err != nil {
		return nil, err
	}
	return &OracleBalance{cfg: cfg}, nil
}

// Name implements kernel.Balancer.
func (o *OracleBalance) Name() string { return "oracle" }

// Rebalance implements kernel.Balancer.
func (o *OracleBalance) Rebalance(k *kernel.Kernel, _ kernel.Time,
	_ []hpc.ThreadSample, _ []hpc.CoreEpochSample) {
	o.epochs++
	tasks := k.ActiveTasks()
	if len(tasks) == 0 {
		return
	}
	plat := k.Platform()
	prob, err := OracleProblem(plat, k, tasks, o.cfg.Weights)
	if err != nil {
		return
	}
	initial := make(Allocation, len(tasks)) //sbvet:allow hotpath(oracle ablation baseline, outside the SmartBalance zero-alloc contract)
	for i, t := range tasks {
		initial[i] = t.Core()
	}
	res, err := Anneal(prob, initial, epochAnneal(o.cfg.Anneal, plat.NumCores(), len(tasks), o.epochs))
	if err != nil {
		return
	}
	for i, t := range tasks {
		if res.Allocation[i] != t.Core() {
			_ = k.Migrate(t.ID, res.Allocation[i])
		}
	}
}
