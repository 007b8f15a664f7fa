package opencl

import (
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

// body is a trivial streaming kernel body for coexec routing tests.
func coexecBody(out []float64) func(*exec.WorkItem) {
	return func(w *exec.WorkItem) {
		out[w.Global] = float64(w.Global)
		w.Tally(0, exec.Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 4})
	}
}

// A streaming kernel on a WithCoexec context routes through the attached
// planner and still computes the right answer (the scheduler is a timing
// construct; functional execution is untouched).
func TestCoexecRoutesStreamingKernel(t *testing.T) {
	m := sim.NewDGPU()
	s := sched.New(sched.Config{Policy: sched.Dynamic})
	m.SetCoexec(s)
	ctx := NewContext(m).WithCoexec()
	q := ctx.NewQueue()
	const n = 1 << 12
	out := make([]float64, n)
	q.Launch(spec(), n, exec.Measure(n, coexecBody(out))[0])
	if st := s.Stats(); st.Splits != 1 || st.HostItems+st.AccelItems != n {
		t.Fatalf("streaming kernel not split: %+v", st)
	}
	for i := range out {
		if out[i] != float64(i) {
			t.Fatalf("out[%d] = %g after co-executed launch", i, out[i])
		}
	}
}

// Irregular kernels stay single-device even under WithCoexec.
func TestCoexecSkipsIrregularKernel(t *testing.T) {
	m := sim.NewDGPU()
	s := sched.New(sched.Config{Policy: sched.Dynamic})
	m.SetCoexec(s)
	ctx := NewContext(m).WithCoexec()
	q := ctx.NewQueue()
	out := make([]float64, 1<<10)
	irr := modelapi.KernelSpec{Name: "gather", Class: modelapi.Irregular, MissRate: 0.9, Coalesce: 0.25}
	q.Launch(irr, len(out), exec.Measure(len(out), coexecBody(out))[0])
	if st := s.Stats(); st.Splits != 0 {
		t.Fatalf("irregular kernel was split: %+v", st)
	}
}

// WithCoexec without an attached planner must not change timing at all —
// the opt-in is free until a scheduler exists.
func TestCoexecWithoutPlannerIsIdentical(t *testing.T) {
	run := func(opt bool) float64 {
		m := sim.NewDGPU()
		ctx := NewContext(m)
		if opt {
			ctx = ctx.WithCoexec()
		}
		q := ctx.NewQueue()
		out := make([]float64, 1<<12)
		q.Launch(spec(), len(out), exec.Measure(len(out), coexecBody(out))[0])
		return m.ElapsedNs()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("WithCoexec with no planner changed timing: %g vs %g ns", a, b)
	}
}
