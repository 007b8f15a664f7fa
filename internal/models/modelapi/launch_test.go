package modelapi_test

import (
	"testing"

	"hetbench/internal/models/cppamp"
	"hetbench/internal/models/hc"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/models/openacc"
	"hetbench/internal/models/opencl"
	"hetbench/internal/models/openmp"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

func allocSpec() modelapi.KernelSpec {
	return modelapi.KernelSpec{Name: "k", Class: modelapi.Streaming, MissRate: 0.5, Coalesce: 1}
}

// allocPer is the measured per-item work every replayed launch prices.
var allocPer = exec.Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 2}

// A replayed launch — one priced from measured counters — with no
// injector attached must not allocate in any runtime: the shared launch
// driver and the recovery hooks each runtime hands it stay on the stack.
// A co-executed replay allocates only the scheduler's split, and a C++
// AMP host-fallback replay only its span name: neither rebuilds a
// profile.
func TestReplayedLaunchAllocs(t *testing.T) {
	const n = 256
	cases := []struct {
		name   string
		max    float64
		launch func() func()
	}{
		{"OpenCL", 0, func() func() {
			q := opencl.NewContext(sim.NewDGPU()).NewQueue()
			return func() { q.Launch(allocSpec(), n, allocPer) }
		}},
		{"OpenCL co-executed", 1, func() func() {
			m := sim.NewDGPU()
			m.SetCoexec(sched.New(sched.Config{Policy: sched.Dynamic}))
			q := opencl.NewContext(m).NewQueue()
			return func() { q.Launch(allocSpec(), n, allocPer) }
		}},
		{"C++ AMP", 0, func() func() {
			rt := cppamp.New(sim.NewDGPU())
			views := []*cppamp.ArrayView{rt.NewArrayView("v", n*8)}
			ext := cppamp.NewExtent(n)
			return func() { rt.Launch(allocSpec(), ext, views, allocPer) }
		}},
		{"C++ AMP host fallback", 1, func() func() {
			rt := cppamp.New(sim.NewDGPU())
			views := []*cppamp.ArrayView{rt.NewArrayView("v", n*8)}
			return func() { rt.LaunchHostFallback(allocSpec(), n, views, allocPer) }
		}},
		{"OpenACC", 0, func() func() {
			rt := openacc.New(sim.NewDGPU())
			uses := []openacc.Clause{openacc.Copy("v", n*8)}
			rt.Data(uses...)
			return func() { rt.Launch(allocSpec(), n, uses, allocPer) }
		}},
		{"OpenMP", 0, func() func() {
			rt := openmp.New(sim.NewDGPU())
			return func() { rt.Launch(allocSpec(), n, allocPer) }
		}},
		{"HC", 0, func() func() {
			rt := hc.New(sim.NewDGPU())
			return func() { rt.Launch(allocSpec(), n, allocPer) }
		}},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(200, c.launch()); avg > c.max {
			t.Errorf("%s: replayed launch allocates %.1f/op, want ≤%g", c.name, avg, c.max)
		}
	}
}
