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

// A streaming kernel on a machine with a planner attached routes through
// it and still computes the right answer (the scheduler is a timing
// construct; functional execution is untouched).
func TestCoexecRoutesStreamingKernel(t *testing.T) {
	m := sim.NewDGPU()
	s := sched.New(sched.Config{Policy: sched.Dynamic})
	m.SetCoexec(s)
	ctx := NewContext(m)
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

// Irregular kernels stay single-device even with a planner attached.
func TestCoexecSkipsIrregularKernel(t *testing.T) {
	m := sim.NewDGPU()
	s := sched.New(sched.Config{Policy: sched.Dynamic})
	m.SetCoexec(s)
	ctx := NewContext(m)
	q := ctx.NewQueue()
	out := make([]float64, 1<<10)
	irr := modelapi.KernelSpec{Name: "gather", Class: modelapi.Irregular, MissRate: 0.9, Coalesce: 0.25}
	q.Launch(irr, len(out), exec.Measure(len(out), coexecBody(out))[0])
	if st := s.Stats(); st.Splits != 0 {
		t.Fatalf("irregular kernel was split: %+v", st)
	}
}
