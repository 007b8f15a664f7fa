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
	m.EnableEventLog(true)
	rt := New(m)
	out := make([]float64, 4096)
	r := rt.ParallelFor(spec(), len(out), func(w *exec.WorkItem) {
		out[w.Global] = 1
		w.Tally(exec.Counters{SPFlops: 1, StoreBytes: 8, Instrs: 2})
	})
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

func TestSerialSlowerThanParallel(t *testing.T) {
	work := func(w *exec.WorkItem) {
		w.Tally(exec.Counters{SPFlops: 100, LoadBytes: 8, Instrs: 120})
	}
	mp, ms := sim.NewAPU(), sim.NewAPU()
	par := New(mp).ParallelFor(spec(), 1<<16, work).TimeNs
	ser := New(ms).Serial(spec(), 1<<16, work).TimeNs
	// 4 cores × SIMD: the serial loop must be several times slower on
	// this compute-bound kernel.
	if ser < 3*par {
		t.Errorf("serial/parallel = %.2f, want ≥3 (4 cores + SIMD)", ser/par)
	}
}

func TestReplayMatchesParallelFor(t *testing.T) {
	per := exec.Counters{SPFlops: 10, LoadBytes: 16, Instrs: 14}
	rt := New(sim.NewAPU())
	r1 := rt.ParallelFor(spec(), 2048, func(w *exec.WorkItem) { w.Tally(per) })
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
	work := func(w *exec.WorkItem) {
		w.Tally(exec.Counters{SPFlops: 64, LoadBytes: 512, StoreBytes: 8, Instrs: 130})
	}
	mCPU := sim.NewDGPU()
	tCPU := New(mCPU).ParallelFor(spec(), 1<<18, work).TimeNs

	mGPU := sim.NewDGPU()
	cost := spec().Cost(modelapi.ProfileFor(modelapi.OpenCL), 1<<18, exec.Counters{SPFlops: 64, LoadBytes: 512, StoreBytes: 8, Instrs: 130})
	tGPU := mGPU.LaunchKernel(sim.OnAccelerator, "k", cost).TimeNs
	speedup := tCPU / tGPU
	if speedup < 5 {
		t.Errorf("dGPU speedup on streaming kernel = %.1f×, want large (≈bandwidth ratio)", speedup)
	}
}
