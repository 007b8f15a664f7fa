package opencl

import (
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

// newFaulty returns a dGPU context with the given fault config attached.
func newFaulty(cfg fault.Config) (*Context, *Queue, *sim.Machine) {
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(cfg), fault.DefaultPolicy())
	ctx := NewContext(m)
	return ctx, ctx.NewQueue(), m
}

func copyKernel(ctx *Context, in, out []float64) *Kernel {
	return ctx.CreateKernel(spec(), func(w *exec.WorkItem) {
		out[w.Global] = in[w.Global] + 1
		w.Tally(exec.Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 2})
	})
}

// Transient launch failures are retried with backoff, restaging only the
// staged argument buffers, and the kernel still completes with correct
// results.
func TestRetryRestagesOnlyStagedArgs(t *testing.T) {
	ctx, q, m := newFaulty(fault.Config{Seed: 5, LaunchFailRate: 0.5})
	const n = 256
	in, out := make([]float64, n), make([]float64, n)
	bufIn := ctx.CreateBuffer("in", int64(n*8))
	bufOut := ctx.CreateBuffer("out", int64(n*8)) // never staged: output-only
	q.EnqueueWriteBuffer(bufIn)
	k := copyKernel(ctx, in, out).SetArgs(bufIn, bufOut)

	h2dBefore := m.Link().Stats().TransfersToDevice
	for i := 0; i < 40; i++ {
		q.EnqueueNDRange(k, n, 64)
	}
	rs := m.Resilience()
	if rs.Retries == 0 {
		t.Fatal("no retries at a 0.5 launch-failure rate over 40 launches")
	}
	for i := range out {
		if out[i] != 1 {
			t.Fatalf("out[%d] = %g after retries, want 1", i, out[i])
		}
	}
	restages := m.Link().Stats().TransfersToDevice - h2dBefore
	if restages == 0 {
		t.Error("retries did not restage the staged input buffer")
	}
	// Only the one staged buffer moves per retry (plus one round-trip per
	// fallback); the unstaged output buffer never moves on the retry path.
	if restages > rs.Retries+rs.Fallbacks {
		t.Errorf("%d h2d restages for %d retries + %d fallbacks; unstaged buffers must not move",
			restages, rs.Retries, rs.Fallbacks)
	}
	if m.FaultNs() <= 0 {
		t.Error("no fault time charged across retried launches")
	}
}

// A persistent device loss exhausts the retry budget and degrades to the
// host CPU; the launch still returns a positive host-side result.
func TestFallbackAfterPersistentDeviceLoss(t *testing.T) {
	ctx, q, m := newFaulty(fault.Config{Seed: 1, DeviceLossRate: 0.75, DeviceLossNs: 1e15})
	const n = 128
	in, out := make([]float64, n), make([]float64, n)
	k := copyKernel(ctx, in, out).SetArgs()
	for i := 0; i < 50 && m.Resilience().Fallbacks == 0; i++ {
		if r := q.EnqueueNDRange(k, n, 64); r.TimeNs <= 0 {
			t.Fatal("resilient launch returned a zero result")
		}
	}
	if m.Resilience().Fallbacks == 0 {
		t.Fatal("persistent device loss never fell back to the host")
	}
	for i := range out {
		if out[i] != 1 {
			t.Fatalf("out[%d] = %g after fallback, want 1", i, out[i])
		}
	}
}

// A silent bit flip perturbs exactly one element of a bound output array
// and charges no fault time — it is invisible until a checksum looks.
func TestBitFlipCorruptsBoundOutput(t *testing.T) {
	ctx, q, m := newFaulty(fault.Config{Seed: 2, BitFlipRate: 0.75})
	const n = 64
	in, out := make([]float64, n), make([]float64, n)
	ctx.Bind("out", out)
	k := copyKernel(ctx, in, out)
	inj := m.FaultInjector()
	for i := 0; i < 100 && inj.Count(fault.BitFlip) == 0; i++ {
		q.EnqueueNDRange(k, n, 64)
	}
	if inj.Count(fault.BitFlip) == 0 {
		t.Fatal("no bit flip drawn")
	}
	bad := 0
	for i := range out {
		if out[i] != 1 {
			bad++
		}
	}
	if bad == 0 {
		t.Error("bit flip did not corrupt the bound output")
	}
	if m.FaultNs() != 0 {
		t.Error("silent corruption charged fault time")
	}
}

// A Launch with no bound args retries with zero restaging.
func TestLaunchRetriesWithoutRestage(t *testing.T) {
	ctx, _, m := newFaulty(fault.Config{Seed: 7, LaunchFailRate: 0.5})
	q := ctx.NewQueue()
	const n = 128
	sp := modelapi.KernelSpec{Name: "fn", Class: modelapi.Streaming, MissRate: 0.5, Coalesce: 1}
	h2dBefore := m.Link().Stats().TransfersToDevice
	for i := 0; i < 40; i++ {
		q.Launch(sp, n, exec.Counters{StoreBytes: 8, Instrs: 1})
	}
	if m.Resilience().Retries == 0 {
		t.Fatal("no retries at a 0.5 launch-failure rate")
	}
	if got := m.Link().Stats().TransfersToDevice - h2dBefore; got != 0 {
		t.Errorf("Launch retries staged %d buffers, want 0", got)
	}
}
