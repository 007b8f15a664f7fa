package modelapi_test

import (
	"testing"

	"hetbench/internal/models/cppamp"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/models/openacc"
	"hetbench/internal/models/opencl"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

func allocSpec() modelapi.KernelSpec {
	return modelapi.KernelSpec{Name: "k", Class: modelapi.Streaming, MissRate: 0.5, Coalesce: 1}
}

func allocBody(w *exec.WorkItem) {
	w.Tally(exec.Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 2})
}

// A replayed launch with no injector attached must not allocate in any of
// the three GPU runtimes: the shared launch driver and the recovery hooks
// each runtime hands it stay on the stack.
func TestReplayedLaunchAllocs(t *testing.T) {
	const n = 256
	per := exec.Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 2}
	cases := []struct {
		name   string
		launch func() func()
	}{
		{"OpenCL", func() func() {
			ctx := opencl.NewContext(sim.NewDGPU())
			q := ctx.NewQueue()
			buf := ctx.CreateBuffer("in", n*8)
			q.EnqueueWriteBuffer(buf)
			k := ctx.CreateKernel(allocSpec(), allocBody).SetArgs(buf)
			q.EnqueueNDRange(k, n, 64)
			return func() { q.ReplayNDRange(k, n) }
		}},
		{"C++ AMP", func() func() {
			rt := cppamp.New(sim.NewDGPU())
			views := []*cppamp.ArrayView{rt.NewArrayView("v", n*8)}
			rt.Replay(allocSpec(), n, views, per)
			return func() { rt.Replay(allocSpec(), n, views, per) }
		}},
		{"OpenACC", func() func() {
			rt := openacc.New(sim.NewDGPU())
			uses := []openacc.Clause{openacc.Copy("v", n*8)}
			rt.Data(uses...)
			rt.Replay(allocSpec(), n, uses, per)
			return func() { rt.Replay(allocSpec(), n, uses, per) }
		}},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(200, c.launch()); avg != 0 {
			t.Errorf("%s: replayed launch allocates %.1f/op, want 0", c.name, avg)
		}
	}
}
