package machine

import (
	"testing"
	"testing/quick"

	"smartbalance/internal/arch"
	"smartbalance/internal/rng"
	"smartbalance/internal/workload"
)

// Conservation properties: however a thread's execution is sliced
// (quantum sizes, interleaved core types), the totals must be exact.

func TestInstructionConservationAcrossSlicing(t *testing.T) {
	m, err := New(arch.QuadHMP())
	if err != nil {
		t.Fatal(err)
	}
	const totalInstr = 30e6
	mkState := func() *ThreadState {
		ts, err := m.NewThreadState(&workload.ThreadSpec{
			Name:      "c",
			Benchmark: "c",
			Phases: []workload.Phase{
				{Name: "a", Instructions: totalInstr / 3, ILP: 3, MemShare: 0.2, BranchShare: 0.1,
					WorkingSetIKB: 4, WorkingSetDKB: 32, BranchEntropy: 0.3, MLP: 2},
				{Name: "b", Instructions: 2 * totalInstr / 3, ILP: 1.5, MemShare: 0.4, BranchShare: 0.12,
					WorkingSetIKB: 8, WorkingSetDKB: 512, BranchEntropy: 0.5, MLP: 2},
			},
			Repeats: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}

	// Reference: one giant slice on the Big core.
	ref := mkState()
	refRes, err := execOn(m, ref, 1, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Finished || refRes.Instructions != totalInstr {
		t.Fatalf("reference run retired %d, finished=%v", refRes.Instructions, refRes.Finished)
	}

	// Sliced arbitrarily across alternating core types.
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		ts := mkState()
		var instr uint64
		for i := 0; i < 100000; i++ {
			if ts.Finished() {
				break
			}
			dur := int64(1e4 + r.Intn(3e6))
			res, err := execOn(m, ts, arch.CoreID(r.Intn(4)), dur)
			if err != nil {
				return false
			}
			instr += res.Instructions
		}
		return ts.Finished() && instr == totalInstr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersNeverExceedInstructions(t *testing.T) {
	m, err := New(arch.QuadHMP())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := workload.Benchmark("canneal", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := m.NewThreadState(&specs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		res, err := execOn(m, ts, arch.CoreID(i%4), 2e6)
		if err != nil {
			t.Fatal(err)
		}
		if res.MemInstructions > res.Instructions || res.BranchInstructions > res.Instructions {
			t.Fatalf("instruction class exceeds total: %+v", res)
		}
		if res.L1DMisses > res.MemInstructions {
			t.Fatalf("more data misses than memory ops: %+v", res)
		}
		if res.BranchMispredicts > res.BranchInstructions {
			t.Fatalf("more mispredicts than branches: %+v", res)
		}
		if res.L1IMisses > res.Instructions || res.ITLBMisses > res.Instructions {
			t.Fatalf("front-end events exceed instructions: %+v", res)
		}
	}
}

func TestEnergyMonotoneInDuration(t *testing.T) {
	m, err := New(arch.QuadHMP())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *ThreadState {
		ts, err := m.NewThreadState(simpleSpec(1<<62, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	short, err := execOn(m, mk(), 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	long, err := execOn(m, mk(), 0, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	if long.EnergyJ <= short.EnergyJ {
		t.Fatalf("energy not monotone in duration: %g vs %g", long.EnergyJ, short.EnergyJ)
	}
	if long.Instructions <= short.Instructions {
		t.Fatal("instructions not monotone in duration")
	}
}
