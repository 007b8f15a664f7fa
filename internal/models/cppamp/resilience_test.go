package cppamp

import (
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

// AMP's conservative recovery: a retry re-stages every captured view, not
// just the one the kernel needed — the full capture set round-trips.
func TestRetryResyncsAllCapturedViews(t *testing.T) {
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 4, LaunchFailRate: 0.5}), fault.DefaultPolicy())
	rt := New(m)
	const n = 256
	out := make([]float64, n)
	views := []*ArrayView{
		rt.NewArrayView("a", n*8),
		rt.NewArrayView("b", n*8),
		rt.NewArrayView("c", n*8),
	}
	h2dBefore := m.Link().Stats().TransfersToDevice
	for i := 0; i < 40; i++ {
		rt.Launch(spec(), NewExtent(n), views, exec.Measure(n, func(w *exec.WorkItem) {
			out[w.Global] = 3
			w.Tally(0, exec.Counters{StoreBytes: 8, Instrs: 1})
		})[0])
	}
	rs := m.Resilience()
	if rs.Retries == 0 {
		t.Fatal("no retries at a 0.5 launch-failure rate over 40 launches")
	}
	h2d := m.Link().Stats().TransfersToDevice - h2dBefore
	// First launch stages 3 views; every retry re-stages all 3.
	if want := 3 + 3*rs.Retries; h2d < want {
		t.Errorf("%d h2d transfers for %d retries, want at least %d (all views re-sync per retry)", h2d, rs.Retries, want)
	}
	for i := range out {
		if out[i] != 3 {
			t.Fatalf("out[%d] = %g after retries, want 3", i, out[i])
		}
	}
}

// Fallback under persistent device loss synchronizes every view back to
// the host and runs there; views end host-fresh.
func TestFallbackSynchronizesViews(t *testing.T) {
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1, DeviceLossRate: 0.75, DeviceLossNs: 1e15}), fault.DefaultPolicy())
	rt := New(m)
	const n = 64
	out := make([]float64, n)
	v := rt.NewArrayView("v", n*8)
	for i := 0; i < 50 && m.Resilience().Fallbacks == 0; i++ {
		r := rt.Launch(spec(), NewExtent(n), []*ArrayView{v}, exec.Measure(n, func(w *exec.WorkItem) {
			out[w.Global] = 1
			w.Tally(0, exec.Counters{StoreBytes: 8, Instrs: 1})
		})[0])
		if r.TimeNs <= 0 {
			t.Fatal("resilient launch returned a zero result")
		}
	}
	if m.Resilience().Fallbacks == 0 {
		t.Fatal("persistent device loss never fell back to the host")
	}
	if v.onDevice {
		t.Error("view still device-fresh after host fallback")
	}
}

// A bit flip lands in a bound output array; the launch itself succeeds.
func TestBitFlipHitsBoundArray(t *testing.T) {
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 2, BitFlipRate: 0.75}), fault.DefaultPolicy())
	rt := New(m)
	const n = 64
	out := make([]float64, n)
	rt.Bind("out", out)
	inj := m.FaultInjector()
	for i := 0; i < 100 && inj.Count(fault.BitFlip) == 0; i++ {
		rt.Launch(spec(), NewExtent(n), nil, exec.Measure(n, func(w *exec.WorkItem) {
			out[w.Global] = 1
			w.Tally(0, exec.Counters{StoreBytes: 8, Instrs: 1})
		})[0])
	}
	if inj.Count(fault.BitFlip) == 0 {
		t.Fatal("no bit flip drawn")
	}
	bad := 0
	for _, v := range out {
		if v != 1 {
			bad++
		}
	}
	if bad == 0 {
		t.Error("bit flip did not corrupt the bound output")
	}
}
