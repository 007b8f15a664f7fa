package openacc

import (
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

func spec() modelapi.KernelSpec {
	return modelapi.KernelSpec{Name: "loop", Class: modelapi.Streaming, MissRate: 0.8, Coalesce: 1}
}

func body(out []float64) func(*exec.WorkItem) {
	return func(w *exec.WorkItem) {
		out[w.Global] = float64(w.Global) * 2
		w.Tally(exec.Counters{SPFlops: 1, StoreBytes: 8, Instrs: 3})
	}
}

// Figure 5 semantics: a kernels-loop outside any data region copies its
// arrays in and out around every launch on the dGPU.
func TestConservativeRegionCopies(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	out := make([]float64, 1024)
	uses := []Clause{Copy("out", 8192)}
	for i := 0; i < 3; i++ {
		rt.Loop(spec(), len(out), uses, body(out))
	}
	st := m.Link().Stats()
	if st.TransfersToDevice != 3 || st.TransfersFromDevice != 3 {
		t.Errorf("per-launch copies = %d in / %d out, want 3/3", st.TransfersToDevice, st.TransfersFromDevice)
	}
	if out[10] != 20 {
		t.Errorf("functional result wrong: out[10] = %g", out[10])
	}
}

// The data directive hoists copies out of the loop — the Section III-B
// optimization that is "particularly useful on discrete GPUs".
func TestDataRegionHoistsCopies(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	out := make([]float64, 1024)

	region := rt.Data(Copy("out", 8192))
	for i := 0; i < 5; i++ {
		rt.Loop(spec(), len(out), []Clause{Copy("out", 8192)}, body(out))
	}
	region.End()

	st := m.Link().Stats()
	if st.TransfersToDevice != 1 || st.TransfersFromDevice != 1 {
		t.Errorf("with data region: %d in / %d out, want 1/1", st.TransfersToDevice, st.TransfersFromDevice)
	}
	if rt.OpenRegions() != 0 {
		t.Error("region still open after End")
	}
}

func TestClauseIntents(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	out := make([]float64, 64)
	uses := []Clause{
		Copyin("in", 4096),
		Copyout("res", 512),
		Create("scratch", 1<<20),
	}
	rt.Loop(spec(), 64, uses, body(out))
	st := m.Link().Stats()
	if st.TransfersToDevice != 1 {
		t.Errorf("copyin count = %d, want 1 (create/copyout must not copy in)", st.TransfersToDevice)
	}
	if st.TransfersFromDevice != 1 {
		t.Errorf("copyout count = %d, want 1 (copyin/create must not copy out)", st.TransfersFromDevice)
	}
	if st.BytesToDevice != 4096 || st.BytesFromDevice != 512 {
		t.Errorf("bytes = %d/%d, want 4096/512", st.BytesToDevice, st.BytesFromDevice)
	}
}

func TestAPUCopiesFree(t *testing.T) {
	m := sim.NewAPU()
	rt := New(m)
	out := make([]float64, 64)
	rt.Loop(spec(), 64, []Clause{Copy("out", 512)}, body(out))
	if m.TransferNs() != 0 {
		t.Error("APU charged transfer time")
	}
}

func TestRegionLIFO(t *testing.T) {
	rt := New(sim.NewDGPU())
	outer := rt.Data(Copyin("a", 64))
	inner := rt.Data(Copyin("b", 64))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("closing outer before inner did not panic")
			}
		}()
		outer.End()
	}()
	inner.End()
	outer.End()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double End did not panic")
			}
		}()
		inner.End()
	}()
}

func TestReplayKeepsTransferSemantics(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	uses := []Clause{Copy("x", 8192)}
	rt.Loop(spec(), 1024, uses, body(make([]float64, 1024)))
	rt.Launch(spec(), 1024, uses, exec.Measure(1024, body(make([]float64, 1024))))
	st := m.Link().Stats()
	if st.TransfersToDevice != 2 || st.TransfersFromDevice != 2 {
		t.Errorf("replay skipped region copies: %d h2d, %d d2h after two loops, want 2/2",
			st.TransfersToDevice, st.TransfersFromDevice)
	}
}

func TestScalarFallbackSlowsIrregularLoops(t *testing.T) {
	// The CoMD effect: the same work as an irregular loop runs much
	// slower under OpenACC than under hand-tuned OpenCL semantics.
	m1, m2 := sim.NewAPU(), sim.NewAPU()
	rt := New(m1)
	work := func(w *exec.WorkItem) {
		w.Tally(exec.Counters{SPFlops: 200, LoadBytes: 64, Instrs: 250})
	}
	irr := modelapi.KernelSpec{Name: "force", Class: modelapi.Irregular, MissRate: 0.26, Coalesce: 0.5}
	rt.Loop(irr, 1<<16, nil, work)
	accTime := m1.ElapsedNs()

	// Reference: identical cost under the OpenCL profile.
	cost := irr.Cost(modelapi.ProfileFor(modelapi.OpenCL), 1<<16, exec.Counters{SPFlops: 200, LoadBytes: 64, Instrs: 250})
	clTime := m2.LaunchKernel(sim.OnAccelerator, "force", cost).TimeNs
	if accTime < 3*clTime {
		t.Errorf("OpenACC irregular loop only %.1f× slower than OpenCL, want ≥3× (scalar fallback)", accTime/clTime)
	}
}

func TestLoopGVVectorMapping(t *testing.T) {
	work := func(w *exec.WorkItem) {
		w.Tally(exec.Counters{SPFlops: 300, LoadBytes: 8, Instrs: 330})
	}
	s := modelapi.KernelSpec{Name: "gv", Class: modelapi.Regular, MissRate: 0.05, Coalesce: 1}
	const n = 1 << 16

	run := func(vector int) float64 {
		m := sim.NewDGPU()
		rt := New(m)
		rt.LoopGV(s, n, (n+vector-1)/vector, vector, nil, work)
		return m.KernelNs()
	}
	full := run(64)   // full wavefronts
	half := run(32)   // half-filled wavefronts: ~2× slower ALU
	multi := run(128) // two full wavefronts per gang: no penalty
	if r := half / full; r < 1.5 {
		t.Errorf("vector(32)/vector(64) = %.2f, want ≈2 (idle lanes)", r)
	}
	if r := multi / full; r > 1.1 {
		t.Errorf("vector(128)/vector(64) = %.2f, want ≈1", r)
	}
}

func TestLoopGVPanics(t *testing.T) {
	rt := New(sim.NewDGPU())
	body := func(*exec.WorkItem) {}
	s := spec()
	cases := []func(){
		func() { rt.LoopGV(s, 64, 0, 64, nil, body) },
		func() { rt.LoopGV(s, 64, 1, 0, nil, body) },
		func() { rt.LoopGV(s, 1024, 2, 64, nil, body) }, // 2×64 < 1024
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestClauseValidation(t *testing.T) {
	rt := New(sim.NewAPU())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty clause name did not panic")
			}
		}()
		rt.Data(Clause{Name: "", Bytes: 64, Intent: IntentCopy})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative clause size did not panic")
			}
		}()
		rt.Loop(spec(), 64, []Clause{{Name: "x", Bytes: -1, Intent: IntentCopy}}, func(w *exec.WorkItem) {})
	}()
}

func TestMachineAccessor(t *testing.T) {
	m := sim.NewAPU()
	if New(m).Machine() != m {
		t.Error("Machine() wrong")
	}
}
