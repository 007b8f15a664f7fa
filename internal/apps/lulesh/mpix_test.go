package lulesh

import (
	"testing"

	"hetbench/internal/models/mpix"
	"hetbench/internal/sim/timing"
)

func TestMPIXStrongScaling(t *testing.T) {
	p := NewProblem(Config{S: 32, Iters: 10, FunctionalIters: 1}, timing.Double)
	results := p.StrongScaling([]int{1, 2, 4, 8}, mpix.DefaultFabric())
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	sp := Speedups(results)
	// Speedup grows with ranks at these sizes…
	for i := 1; i < len(sp); i++ {
		if sp[i] <= sp[i-1] {
			t.Errorf("speedup not increasing: %v", sp)
			break
		}
	}
	// …but below ideal, with efficiency ≤ 1 and decreasing.
	prevEff := 1.1
	for i, r := range results {
		eff := r.Efficiency(results[0])
		if eff > 1.0001 {
			t.Errorf("ranks=%d: efficiency %.3f > 1", r.Ranks, eff)
		}
		if eff > prevEff+1e-9 {
			t.Errorf("efficiency not monotone: ranks=%d eff=%.3f prev=%.3f", r.Ranks, eff, prevEff)
		}
		prevEff = eff
		if i > 0 && r.CommFraction() <= results[i-1].CommFraction() {
			t.Errorf("comm fraction not growing with ranks: %v then %v",
				results[i-1].CommFraction(), r.CommFraction())
		}
	}
	// Single rank has zero halo traffic time but still the dt reduce is
	// free (log2(1)=0): comm ≈ 0.
	if results[0].CommFraction() > 0.01 {
		t.Errorf("1-rank comm fraction = %.3f, want ≈0", results[0].CommFraction())
	}
}

func TestMPIXPanicsOnIndivisibleSlabs(t *testing.T) {
	p := NewProblem(Config{S: 10, Iters: 2, FunctionalIters: 1}, timing.Double)
	defer func() {
		if recover() == nil {
			t.Error("indivisible slab count did not panic")
		}
	}()
	p.runMPIX(mpix.NewCluster(3, mpix.DefaultFabric()))
}

func TestMPIXDegenerateHelpers(t *testing.T) {
	if (MPIXResult{}).Efficiency(MPIXResult{}) != 0 {
		t.Error("degenerate efficiency not 0")
	}
	if (MPIXResult{}).CommFraction() != 0 {
		t.Error("degenerate comm fraction not 0")
	}
	if len(Speedups(nil)) != 0 {
		t.Error("Speedups(nil) not empty")
	}
}
