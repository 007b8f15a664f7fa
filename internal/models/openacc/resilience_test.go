package openacc

import (
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

// The directive model's coarse recovery: a retry re-copies every input
// clause of the enclosing data region, even arrays the failed loop never
// touched.
func TestRetryRecopiesWholeRegion(t *testing.T) {
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 4, LaunchFailRate: 0.5}), fault.DefaultPolicy())
	rt := New(m)
	const n = 256
	out := make([]float64, n)

	// Region holds 3 input arrays; each loop uses only one of them.
	reg := rt.Data(
		Copyin("a", n*8),
		Copyin("b", n*8),
		Copy("c", n*8),
	)
	h2dBefore := m.Link().Stats().TransfersToDevice
	for i := 0; i < 40; i++ {
		rt.Launch(spec(), n, []Clause{Copy("c", n*8)}, exec.Measure(n, body(out))[0])
	}
	reg.End()
	rs := m.Resilience()
	if rs.Retries == 0 {
		t.Fatal("no retries at a 0.5 launch-failure rate over 40 launches")
	}
	h2d := m.Link().Stats().TransfersToDevice - h2dBefore
	// Every retry re-establishes all 3 region inputs.
	if want := 3 * rs.Retries; h2d < want {
		t.Errorf("%d h2d transfers for %d retries, want at least %d (whole-region re-copy)", h2d, rs.Retries, want)
	}
	for i := range out {
		if out[i] != float64(i)*2 {
			t.Fatalf("out[%d] = %g after retried loops, want %d", i, out[i], i*2)
		}
	}
}

// Fallback under persistent device loss round-trips the region and runs
// the loop on the host; the launch still returns a positive result.
func TestFallbackRoundTripsRegion(t *testing.T) {
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1, DeviceLossRate: 0.75, DeviceLossNs: 1e15}), fault.DefaultPolicy())
	rt := New(m)
	const n = 64
	out := make([]float64, n)
	reg := rt.Data(Copy("c", n*8))
	d2hBefore := m.Link().Stats().TransfersFromDevice
	for i := 0; i < 50 && m.Resilience().Fallbacks == 0; i++ {
		if r := rt.Launch(spec(), n, nil, exec.Measure(n, body(out))[0]); r.TimeNs <= 0 {
			t.Fatal("resilient launch returned a zero result")
		}
	}
	if m.Resilience().Fallbacks == 0 {
		t.Fatal("persistent device loss never fell back to the host")
	}
	if m.Link().Stats().TransfersFromDevice == d2hBefore {
		t.Error("fallback did not synchronize the region back to the host")
	}
	reg.End()
}

// A bit flip lands in a bound output array without charging fault time.
func TestBitFlipHitsBoundArray(t *testing.T) {
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 2, BitFlipRate: 0.75}), fault.DefaultPolicy())
	rt := New(m)
	const n = 64
	out := make([]float64, n)
	rt.Bind("out", out)
	inj := m.FaultInjector()
	for i := 0; i < 100 && inj.Count(fault.BitFlip) == 0; i++ {
		rt.Launch(spec(), n, nil, exec.Measure(n, func(w *exec.WorkItem) {
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
	if m.FaultNs() != 0 {
		t.Error("silent corruption charged fault time")
	}
}
