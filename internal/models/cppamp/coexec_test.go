package cppamp

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
		w.Tally(0, exec.Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 4})
	}
}

// A streaming parallel_for_each on a WithCoexec runtime routes through the
// planner; an Irregular one stays single-device.
func TestCoexecRouting(t *testing.T) {
	m := sim.NewDGPU()
	s := sched.New(sched.Config{Policy: sched.HGuided})
	m.SetCoexec(s)
	rt := New(m).WithCoexec()
	const n = 1 << 12
	out := make([]float64, n)
	av := rt.NewArrayView("coexec.out", int64(n)*8)
	rt.Launch(spec(), NewExtent(n), []*ArrayView{av}, exec.Measure(n, coexecBody(out))[0])
	if st := s.Stats(); st.Splits != 1 || st.HostItems+st.AccelItems != n {
		t.Fatalf("streaming kernel not split: %+v", st)
	}
	for i := range out {
		if out[i] != float64(i) {
			t.Fatalf("out[%d] = %g after co-executed launch", i, out[i])
		}
	}

	irr := modelapi.KernelSpec{Name: "gather", Class: modelapi.Irregular, MissRate: 0.9, Coalesce: 0.25}
	rt.Launch(irr, NewExtent(n), []*ArrayView{av}, exec.Measure(n, coexecBody(out))[0])
	if st := s.Stats(); st.Splits != 1 {
		t.Fatalf("irregular kernel was split: %+v", st)
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
		av := rt.NewArrayView("coexec.out", int64(n)*8)
		rt.Launch(spec(), NewExtent(n), []*ArrayView{av}, exec.Measure(n, coexecBody(out))[0])
		return m.ElapsedNs()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("WithCoexec with no planner changed timing: %g vs %g ns", a, b)
	}
}
