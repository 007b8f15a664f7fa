package openacc

import (
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

func coexecBody(out []float64) func(*exec.WorkItem) {
	return func(w *exec.WorkItem) {
		out[w.Global] = float64(w.Global)
		w.Tally(exec.Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 4})
	}
}

// A streaming kernels-loop on a WithCoexec runtime routes through the
// planner; an Irregular one (the scalar-CSR case) stays single-device.
func TestCoexecRouting(t *testing.T) {
	m := sim.NewDGPU()
	s := sched.New(sched.Config{Policy: sched.Static})
	m.SetCoexec(s)
	rt := New(m).WithCoexec()
	const n = 1 << 12
	out := make([]float64, n)
	uses := []Clause{Copyout("coexec.out", int64(n)*8)}
	rt.Loop(spec(), n, uses, coexecBody(out))
	if st := s.Stats(); st.Splits != 1 || st.HostItems+st.AccelItems != n {
		t.Fatalf("streaming loop not split: %+v", st)
	}
	for i := range out {
		if out[i] != float64(i) {
			t.Fatalf("out[%d] = %g after co-executed launch", i, out[i])
		}
	}

	irr := modelapi.KernelSpec{Name: "spmv", Class: modelapi.Irregular, MissRate: 0.9, Coalesce: 0.25}
	rt.Loop(irr, n, uses, coexecBody(out))
	if st := s.Stats(); st.Splits != 1 {
		t.Fatalf("irregular loop was split: %+v", st)
	}
}

// WithCoexec without a planner must be timing-identical to the default.
func TestCoexecWithoutPlannerIsIdentical(t *testing.T) {
	run := func(opt bool) float64 {
		m := sim.NewDGPU()
		rt := New(m)
		if opt {
			rt = rt.WithCoexec()
		}
		const n = 1 << 12
		out := make([]float64, n)
		rt.Loop(spec(), n, []Clause{Copyout("coexec.out", int64(n)*8)}, coexecBody(out))
		return m.ElapsedNs()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("WithCoexec with no planner changed timing: %g vs %g ns", a, b)
	}
}
