package opencl

import (
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

func spec() modelapi.KernelSpec {
	return modelapi.KernelSpec{Name: "blocksum", Class: modelapi.Streaming, MissRate: 0.9, Coalesce: 1}
}

// The Figure 4 flow: init, buffers, copy in, launch, copy out — on both
// machines; transfers cost on the dGPU and are free on the APU.
func TestFigure4Flow(t *testing.T) {
	for _, tc := range []struct {
		machine  *sim.Machine
		freeCopy bool
	}{
		{sim.NewAPU(), true},
		{sim.NewDGPU(), false},
	} {
		ctx := NewContext(tc.machine)
		q := ctx.NewQueue()
		const n, block = 1 << 12, 64
		in := make([]float64, n*block)
		for i := range in {
			in[i] = 1
		}
		out := make([]float64, n)

		bufIn := ctx.CreateBuffer("in", int64(len(in)*8))
		bufOut := ctx.CreateBuffer("out", int64(len(out)*8))
		wcost := q.EnqueueWriteBuffer(bufIn)

		k := ctx.CreateKernel(spec(), func(w *exec.WorkItem) {
			sum := 0.0
			st := w.Global * block
			for j := 0; j < block; j++ {
				sum += in[st+j]
			}
			out[w.Global] = sum
			w.Tally(exec.Counters{SPFlops: block, LoadBytes: 8 * block, StoreBytes: 8, Instrs: 2 * block})
		})
		r := q.EnqueueNDRange(k, n, 64)
		rcost := q.EnqueueReadBuffer(bufOut)
		q.Finish()

		for i := range out {
			if out[i] != block {
				t.Fatalf("%s: out[%d] = %g, want %d", tc.machine.Name(), i, out[i], block)
			}
		}
		if r.TimeNs <= 0 {
			t.Errorf("%s: kernel time not positive", tc.machine.Name())
		}
		if tc.freeCopy && (wcost != 0 || rcost != 0) {
			t.Errorf("%s: transfers cost %g/%g ns, want free", tc.machine.Name(), wcost, rcost)
		}
		if !tc.freeCopy && (wcost <= 0 || rcost <= 0) {
			t.Errorf("%s: transfers cost %g/%g ns, want positive", tc.machine.Name(), wcost, rcost)
		}
		if bufIn.Bytes() != int64(len(in)*8) {
			t.Error("buffer size wrong")
		}
	}
}

func TestTiledKernelUsesLDS(t *testing.T) {
	ctx := NewContext(sim.NewDGPU())
	q := ctx.NewQueue()
	const local, groups = 64, 16
	out := make([]float64, local*groups)
	k := ctx.CreateTiledKernel(
		modelapi.KernelSpec{Name: "tiled", Class: modelapi.Regular, MissRate: 0.2, Coalesce: 1},
		local,
		func(g *exec.Group, l int) {
			g.LDS[l] = float64(l)
			g.Tally(exec.Counters{LDSBytes: 8, Instrs: 2})
		},
		func(g *exec.Group, l int) {
			sum := 0.0
			for i := 0; i < g.Size; i++ {
				sum += g.LDS[i]
			}
			out[g.GlobalID(l)] = sum
			g.Tally(exec.Counters{SPFlops: float64(g.Size), LDSBytes: float64(8 * g.Size), StoreBytes: 8, Instrs: float64(g.Size)})
		},
	)
	r := q.EnqueueNDRange(k, local*groups, local)
	want := float64(local*(local-1)) / 2
	for i, v := range out {
		if v != want {
			t.Fatalf("out[%d] = %g, want %g", i, v, want)
		}
	}
	if r.LDSNs <= 0 {
		t.Error("tiled kernel charged no LDS time")
	}
}

func TestUnrollReducesIssuePressure(t *testing.T) {
	run := func(unroll bool) float64 {
		ctx := NewContext(sim.NewDGPU())
		q := ctx.NewQueue()
		k := ctx.CreateKernel(
			modelapi.KernelSpec{Name: "issue-bound", Class: modelapi.Regular, MissRate: 0.01, Coalesce: 1},
			func(w *exec.WorkItem) {
				w.Tally(exec.Counters{SPFlops: 1, Instrs: 400})
			})
		k.Unroll = unroll
		return q.EnqueueNDRange(k, 1<<20, 64).TimeNs
	}
	plain, unrolled := run(false), run(true)
	if unrolled >= plain {
		t.Errorf("unrolled %g ns not faster than plain %g ns", unrolled, plain)
	}
}

func TestReplayMatchesFunctionalLaunch(t *testing.T) {
	ctx := NewContext(sim.NewAPU())
	q := ctx.NewQueue()
	per := exec.Counters{SPFlops: 4, LoadBytes: 32, Instrs: 8}
	r1 := q.EnqueueNDRange(ctx.CreateKernel(spec(), func(w *exec.WorkItem) { w.Tally(per) }), 4096, 64)
	r2 := q.Launch(spec(), 4096, per)
	if r1.TimeNs != r2.TimeNs {
		t.Errorf("replay time %g != functional time %g", r2.TimeNs, r1.TimeNs)
	}
}

func TestConstructorPanics(t *testing.T) {
	ctx := NewContext(sim.NewAPU())
	cases := []func(){
		func() { ctx.CreateBuffer("b", -1) },
		func() { ctx.CreateKernel(spec(), nil) },
		func() { ctx.CreateKernel(modelapi.KernelSpec{}, func(w *exec.WorkItem) {}) },
		func() { ctx.CreateTiledKernel(spec(), 8) },
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

func TestMachineAccessor(t *testing.T) {
	m := sim.NewAPU()
	if NewContext(m).Machine() != m {
		t.Error("Machine() accessor wrong")
	}
}
