package core

import (
	"testing"

	"smartbalance/internal/arch"
	"smartbalance/internal/balancer"
	"smartbalance/internal/kernel"
	"smartbalance/internal/machine"
	"smartbalance/internal/workload"
)

func TestOracleName(t *testing.T) {
	o, err := NewOracle(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "oracle" {
		t.Fatalf("Name() = %q", o.Name())
	}
}

func TestNewOracleValidatesAnneal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Anneal.Perturb = -1
	if _, err := NewOracle(cfg); err == nil {
		t.Fatal("bad anneal config accepted")
	}
	// MaxIter <= 0 selects the scaled budget; the other fields are
	// still validated (TestZeroMaxIterKeepsAnnealConfig).
	cfg = DefaultConfig()
	cfg.Anneal.MaxIter = 0
	if _, err := NewOracle(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOracleBeatsVanilla(t *testing.T) {
	// Oracle matrices are exact, so the oracle balancer is the upper
	// bound: it must beat the capability-blind vanilla policy.
	run := func(b kernel.Balancer) float64 {
		m, err := machine.New(arch.QuadHMP())
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.New(m, b, kernel.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		specs, err := workload.Mix("Mix5", 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if _, err := k.Spawn(&specs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(1e9); err != nil {
			t.Fatal(err)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return k.Stats().EnergyEfficiency()
	}
	o, err := NewOracle(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracleEE := run(o)
	vanillaEE := run(balancer.Vanilla{})
	if oracleEE <= vanillaEE*1.2 {
		t.Fatalf("oracle EE %.4g barely beats vanilla %.4g", oracleEE, vanillaEE)
	}
}

func TestOracleEmptySystem(t *testing.T) {
	o, err := NewOracle(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := machine.New(arch.QuadHMP())
	k, _ := kernel.New(m, o, kernel.DefaultConfig())
	if err := k.Run(200e6); err != nil {
		t.Fatal(err)
	}
	if k.Stats().TotalInstructions() != 0 {
		t.Fatal("phantom work")
	}
}

func TestPredictionCloseToOracleEndToEnd(t *testing.T) {
	// The repository-level claim behind Fig. 6: the predictor's error is
	// small enough that prediction-driven balancing achieves nearly the
	// oracle's energy efficiency.
	run := func(b kernel.Balancer) float64 {
		m, _ := machine.New(arch.QuadHMP())
		k, _ := kernel.New(m, b, kernel.DefaultConfig())
		specs, err := workload.Mix("Mix1", 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			_, _ = k.Spawn(&specs[i])
		}
		if err := k.Run(1e9); err != nil {
			t.Fatal(err)
		}
		return k.Stats().EnergyEfficiency()
	}
	o, err := NewOracle(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sb := newSmartBalance(t, arch.Table2Types())
	oracleEE := run(o)
	smartEE := run(sb)
	if smartEE < 0.8*oracleEE {
		t.Fatalf("prediction-driven EE %.4g is below 80%% of oracle %.4g", smartEE, oracleEE)
	}
}
