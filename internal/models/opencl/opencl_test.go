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

		per := exec.Measure(n, func(w *exec.WorkItem) {
			sum := 0.0
			st := w.Global * block
			for j := 0; j < block; j++ {
				sum += in[st+j]
			}
			out[w.Global] = sum
			w.Tally(0, exec.Counters{SPFlops: block, LoadBytes: 8 * block, StoreBytes: 8, Instrs: 2 * block})
		})[0]
		r := q.Launch(spec(), n, per, bufIn, bufOut)
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
		if bufIn.bytes != int64(len(in)*8) {
			t.Error("buffer size wrong")
		}
	}
}

// A tiled kernel's body tallies the local-data-store traffic its tile
// staging causes; the launch charges that traffic, and only that, as LDS
// time.
func TestTiledKernelUsesLDS(t *testing.T) {
	q := NewContext(sim.NewDGPU()).NewQueue()
	sp := modelapi.KernelSpec{Name: "tiled", Class: modelapi.Regular, MissRate: 0.2, Coalesce: 1}
	const local, groups = 64, 16
	flat := exec.Counters{SPFlops: local, LoadBytes: 8 * local, StoreBytes: 8, Instrs: local}
	tiled := flat
	tiled.LoadBytes = 8
	tiled.LDSBytes = 8 * (local + 1)
	if r := q.Launch(sp, local*groups, tiled); r.LDSNs <= 0 {
		t.Error("tiled kernel charged no LDS time")
	}
	if r := q.Launch(sp, local*groups, flat); r.LDSNs != 0 {
		t.Errorf("flat kernel charged %g ns of LDS time", r.LDSNs)
	}
}

// Pricing the counters a body measures equals pricing the same counters
// replayed without running the body.
func TestReplayMatchesFunctionalLaunch(t *testing.T) {
	ctx := NewContext(sim.NewAPU())
	q := ctx.NewQueue()
	per := exec.Counters{SPFlops: 4, LoadBytes: 32, Instrs: 8}
	r1 := q.Launch(spec(), 4096, exec.Measure(4096, func(w *exec.WorkItem) { w.Tally(0, per) })[0])
	r2 := q.Launch(spec(), 4096, per)
	if r1.TimeNs != r2.TimeNs {
		t.Errorf("replay time %g != functional time %g", r2.TimeNs, r1.TimeNs)
	}
}

func TestConstructorPanics(t *testing.T) {
	ctx := NewContext(sim.NewAPU())
	cases := []func(){
		func() { ctx.CreateBuffer("b", -1) },
		func() { ctx.NewQueue().Launch(modelapi.KernelSpec{}, 64, exec.Counters{}) },
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

// BenchmarkQueueLaunch measures one planner-less Queue.Launch of a
// streaming kernel, the launch nearly every priced OpenCL run makes: the
// accelerator cost, the co-execution check and the machine's launch. The
// host-side cost is built only when a planner is attached.
func BenchmarkQueueLaunch(b *testing.B) {
	ctx := NewContext(sim.NewDGPU())
	q := ctx.NewQueue()
	buf := ctx.CreateBuffer("in", 1<<20)
	q.EnqueueWriteBuffer(buf)
	per := exec.Counters{SPFlops: 32, LoadBytes: 24, StoreBytes: 8, Instrs: 48}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Launch(spec(), 1<<16, per, buf)
	}
}
