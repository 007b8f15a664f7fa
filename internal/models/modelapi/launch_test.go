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

func allocBody(w *exec.WorkItem) {
	w.Tally(exec.Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 2})
}

// Measure runs the kernel on the first call and on every functional call,
// caching the per-item counters of the latest run; a replay returns the
// cached counters without running anything.
func TestMeasure(t *testing.T) {
	rt := modelapi.NewRuntime(sim.NewAPU(), modelapi.OpenCL)
	runs := 0
	run := func(flops float64) func() exec.Result {
		return func() exec.Result {
			runs++
			return exec.Result{Items: 4, Counters: exec.Counters{SPFlops: flops}}
		}
	}
	if per := rt.Measure("k", 4, false, run(8)); runs != 1 || per.SPFlops != 2 {
		t.Fatalf("first call: %d runs, %g flops/item; want 1 run, 2", runs, per.SPFlops)
	}
	if per := rt.Measure("k", 4, true, run(20)); runs != 2 || per.SPFlops != 5 {
		t.Fatalf("functional call: %d runs, %g flops/item; want 2 runs, 5", runs, per.SPFlops)
	}
	replay := func() exec.Result {
		t.Fatal("replay ran the kernel")
		return exec.Result{}
	}
	if per := rt.Measure("k", 4, false, replay); per.SPFlops != 5 {
		t.Errorf("replay: %g flops/item, want the last functional run's 5", per.SPFlops)
	}
	if per := rt.Measure("other", 4, false, run(4)); runs != 3 || per.SPFlops != 1 {
		t.Errorf("new key: %d runs, %g flops/item; want 3 runs, 1", runs, per.SPFlops)
	}
}

// A replayed launch with no injector attached must not allocate in any
// runtime: the shared launch driver and the recovery hooks each runtime
// hands it stay on the stack. A co-executed replay allocates only the
// scheduler's split, and a C++ AMP host-fallback replay only its two
// name strings (cache key and span name): neither rebuilds a profile.
func TestReplayedLaunchAllocs(t *testing.T) {
	const n = 256
	cases := []struct {
		name   string
		max    float64
		launch func() func()
	}{
		{"OpenCL", 0, func() func() {
			q := opencl.NewContext(sim.NewDGPU()).NewQueue()
			q.LaunchFunc(allocSpec(), n, true, allocBody)
			return func() { q.LaunchFunc(allocSpec(), n, false, allocBody) }
		}},
		{"OpenCL co-executed", 1, func() func() {
			m := sim.NewDGPU()
			m.SetCoexec(sched.New(sched.Config{Policy: sched.Dynamic}))
			q := opencl.NewContext(m).WithCoexec().NewQueue()
			q.LaunchFunc(allocSpec(), n, true, allocBody)
			return func() { q.LaunchFunc(allocSpec(), n, false, allocBody) }
		}},
		{"C++ AMP", 0, func() func() {
			rt := cppamp.New(sim.NewDGPU())
			views := []*cppamp.ArrayView{rt.NewArrayView("v", n*8)}
			ext := cppamp.NewExtent(n)
			rt.Launch(allocSpec(), ext, views, true, allocBody)
			return func() { rt.Launch(allocSpec(), ext, views, false, allocBody) }
		}},
		{"C++ AMP host fallback", 2, func() func() {
			rt := cppamp.New(sim.NewDGPU())
			views := []*cppamp.ArrayView{rt.NewArrayView("v", n*8)}
			rt.LaunchHostFallback(allocSpec(), n, views, true, allocBody)
			return func() { rt.LaunchHostFallback(allocSpec(), n, views, false, allocBody) }
		}},
		{"OpenACC", 0, func() func() {
			rt := openacc.New(sim.NewDGPU())
			uses := []openacc.Clause{openacc.Copy("v", n*8)}
			rt.Data(uses...)
			rt.Launch(allocSpec(), n, uses, true, allocBody)
			return func() { rt.Launch(allocSpec(), n, uses, false, allocBody) }
		}},
		{"OpenMP", 0, func() func() {
			rt := openmp.New(sim.NewDGPU())
			rt.Launch(allocSpec(), n, true, allocBody)
			return func() { rt.Launch(allocSpec(), n, false, allocBody) }
		}},
		{"HC", 0, func() func() {
			rt := hc.New(sim.NewDGPU())
			rt.LaunchCached(allocSpec(), n, true, allocBody)
			return func() { rt.LaunchCached(allocSpec(), n, false, allocBody) }
		}},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(200, c.launch()); avg > c.max {
			t.Errorf("%s: replayed launch allocates %.1f/op, want ≤%g", c.name, avg, c.max)
		}
	}
}
