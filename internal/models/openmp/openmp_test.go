package openmp

import (
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

func spec() modelapi.KernelSpec {
	return modelapi.KernelSpec{Name: "omp-loop", Class: modelapi.Streaming, MissRate: 0.9, Coalesce: 1}
}

func TestParallelForRunsOnHost(t *testing.T) {
	m := sim.NewAPU()
	rt := New(m)
	out := make([]float64, 4096)
	r := rt.Launch(spec(), len(out), exec.Measure(len(out), func(w *exec.WorkItem) {
		out[w.Global] = 1
		w.Tally(0, exec.Counters{SPFlops: 1, StoreBytes: 8, Instrs: 2})
	})[0])
	if r.TimeNs <= 0 {
		t.Fatal("no time charged")
	}
	for i, v := range out {
		if v != 1 {
			t.Fatalf("out[%d] = %g, functional execution incomplete", i, v)
		}
	}
	if m.TransferNs() != 0 {
		t.Error("OpenMP charged transfer time")
	}
}

// A parallel for priced from its measured body equals the same counters
// replayed without running the body.
func TestReplayMatchesParallelFor(t *testing.T) {
	per := exec.Counters{SPFlops: 10, LoadBytes: 16, Instrs: 14}
	rt := New(sim.NewAPU())
	r1 := rt.Launch(spec(), 2048, exec.Measure(2048, func(w *exec.WorkItem) { w.Tally(0, per) })[0])
	r2 := rt.Launch(spec(), 2048, per)
	if r1.TimeNs != r2.TimeNs {
		t.Errorf("replay %g != functional %g", r2.TimeNs, r1.TimeNs)
	}
}

func TestMachineAccessor(t *testing.T) {
	m := sim.NewAPU()
	if New(m).Machine() != m {
		t.Error("Machine() wrong")
	}
}

// The paper's premise: the GPU beats 4 CPU cores on parallel work. Check
// a bandwidth-bound kernel on the dGPU machine (its GDDR5 vs host DDR3).
func TestGPUBeatsOpenMPOnStreaming(t *testing.T) {
	per := exec.Counters{SPFlops: 64, LoadBytes: 512, StoreBytes: 8, Instrs: 130}
	tCPU := New(sim.NewDGPU()).Launch(spec(), 1<<18, per).TimeNs

	mGPU := sim.NewDGPU()
	cost := spec().Cost(modelapi.ProfileFor(modelapi.OpenCL), 1<<18, per)
	rGPU, _ := mGPU.Launch(sim.OnAccelerator, "k", cost)
	tGPU := rGPU.TimeNs
	speedup := tCPU / tGPU
	if speedup < 5 {
		t.Errorf("dGPU speedup on streaming kernel = %.1f×, want large (≈bandwidth ratio)", speedup)
	}
}
