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

// A streaming parallel_for_each on a machine with a planner routes
// through it; an Irregular one stays single-device.
func TestCoexecRouting(t *testing.T) {
	m := sim.NewDGPU()
	s := sched.New(sched.Config{Policy: sched.HGuided})
	m.SetCoexec(s)
	rt := New(m)
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
