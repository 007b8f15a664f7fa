package timing

import (
	"testing"
	"testing/quick"

	"hetbench/internal/sim/device"
)

func computeBound() KernelCost {
	return KernelCost{
		Items:     1 << 20,
		SPFlops:   500,
		LoadBytes: 8, StoreBytes: 4,
		Instrs:   200,
		MissRate: 0.1,
		Coalesce: 1,
		VecEff:   1,
	}
}

func memoryBound() KernelCost {
	return KernelCost{
		Items:     1 << 20,
		SPFlops:   4,
		LoadBytes: 256, StoreBytes: 4,
		Instrs:   40,
		MissRate: 0.9,
		Coalesce: 1,
		VecEff:   1,
	}
}

func TestValidate(t *testing.T) {
	if err := computeBound().Validate(); err != nil {
		t.Fatalf("good cost rejected: %v", err)
	}
	bad := []func(*KernelCost){
		func(k *KernelCost) { k.Items = 0 },
		func(k *KernelCost) { k.SPFlops = -1 },
		func(k *KernelCost) { k.LoadBytes = -1 },
		func(k *KernelCost) { k.MissRate = 1.5 },
		func(k *KernelCost) { k.Coalesce = -0.1 },
		func(k *KernelCost) { k.VecEff = 2 },
		func(k *KernelCost) { k.SerialFraction = 1 },
	}
	for i, mut := range bad {
		k := computeBound()
		mut(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestKernelPanicsOnInvalidCost(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid cost did not panic")
		}
	}()
	NewModel(device.R9280X()).Kernel(KernelCost{Items: -1})
}

func TestBoundClassification(t *testing.T) {
	m := NewModel(device.R9280X())
	if r := m.Kernel(computeBound()); r.Bound != "alu" {
		t.Errorf("compute-bound kernel classified as %q (alu=%g mem=%g issue=%g)", r.Bound, r.ALUNs, r.MemNs, r.IssueNs)
	}
	if r := m.Kernel(memoryBound()); r.Bound != "mem" {
		t.Errorf("memory-bound kernel classified as %q", r.Bound)
	}
}

// Fig 7 shape: a compute-bound kernel speeds up with core clock and ignores
// memory clock; a memory-bound kernel does the opposite (at high core clock).
func TestFrequencyScalingShapes(t *testing.T) {
	d := device.R9280X()

	timeAt := func(k KernelCost, core, mem int) float64 {
		m := NewModel(d)
		m.SetCoreClock(core)
		m.SetMemClock(mem)
		return m.Kernel(k).TimeNs
	}

	// Compute bound: core 400→925 should speed up by ≈2.3×.
	cb := computeBound()
	sp := timeAt(cb, 400, 1250) / timeAt(cb, 925, 1250)
	if sp < 1.8 || sp > 2.6 {
		t.Errorf("compute-bound core scaling 400→925 = %.2f×, want ≈2.3×", sp)
	}
	// ... and memory clock must not matter much.
	if r := timeAt(cb, 925, 480) / timeAt(cb, 925, 1250); r > 1.3 {
		t.Errorf("compute-bound mem sensitivity = %.2f×, want ≈1", r)
	}

	// Memory bound at full core clock: mem 480→1250 ≈ 2.6× ideally.
	mb := memoryBound()
	sm := timeAt(mb, 925, 480) / timeAt(mb, 925, 1250)
	if sm < 1.8 {
		t.Errorf("memory-bound mem scaling 480→1250 = %.2f×, want ≥1.8×", sm)
	}
	// At 200 MHz core the same sweep should flatten (request-limited).
	smLow := timeAt(mb, 200, 480) / timeAt(mb, 200, 1250)
	if smLow > 1.3 {
		t.Errorf("memory-bound mem scaling at 200 MHz core = %.2f×, want ≈flat", smLow)
	}
}

func TestVecEffSlowdown(t *testing.T) {
	m := NewModel(device.R9280X())
	k := computeBound()
	base := m.Kernel(k).TimeNs
	k.VecEff = 0.5
	if got := m.Kernel(k).TimeNs; got < base*1.7 {
		t.Errorf("half vec-eff gave %.2f× slowdown, want ≈2×", got/base)
	}
}

func TestSerialFractionHurts(t *testing.T) {
	m := NewModel(device.R9280X())
	k := computeBound()
	base := m.Kernel(k).TimeNs
	k.SerialFraction = 0.9
	if got := m.Kernel(k).TimeNs; got <= base*2 {
		t.Errorf("90%% serial gave only %.2f× slowdown", got/base)
	}
}

func TestDoublePrecisionRatio(t *testing.T) {
	// Pure-DP flavor of the compute-bound kernel on the dGPU (1/4 DP)
	// vs the APU GPU (1/16 DP): the APU should suffer a larger SP→DP
	// slowdown, matching Section VI-A.
	slowdown := func(d *device.Device) float64 {
		m := NewModel(d)
		sp := computeBound()
		dp := sp
		dp.SPFlops, dp.DPFlops = 0, sp.SPFlops
		dp.LoadBytes *= 2
		dp.StoreBytes *= 2
		return m.Kernel(dp).TimeNs / m.Kernel(sp).TimeNs
	}
	sdGPU := slowdown(device.R9280X())
	sAPU := slowdown(device.A10_7850K())
	if sdGPU < 3 || sdGPU > 5 {
		t.Errorf("dGPU DP slowdown = %.1f×, want ≈4×", sdGPU)
	}
	if sAPU < 10 {
		t.Errorf("APU DP slowdown = %.1f×, want ≈16×", sAPU)
	}
	if sAPU <= sdGPU {
		t.Error("APU must suffer more from DP than dGPU")
	}
}

func TestCoalescingPenalty(t *testing.T) {
	m := NewModel(device.R9280X())
	k := memoryBound()
	base := m.Kernel(k)
	k.Coalesce = 0.25
	scattered := m.Kernel(k)
	if scattered.DRAMBytes <= base.DRAMBytes {
		t.Error("poor coalescing did not inflate DRAM traffic")
	}
	if scattered.TimeNs <= base.TimeNs {
		t.Error("poor coalescing did not slow the kernel")
	}
}

func TestSmallLaunchDominatedByOverhead(t *testing.T) {
	m := NewModel(device.R9280X())
	k := KernelCost{Items: 64, SPFlops: 10, LoadBytes: 8, Instrs: 10, MissRate: 1, Coalesce: 1, VecEff: 1}
	r := m.Kernel(k)
	if r.LaunchNs < 0.5*r.TimeNs {
		t.Errorf("64-item launch: overhead %.0f of %.0f ns; want launch-dominated", r.LaunchNs, r.TimeNs)
	}
}

func TestIPCInTableOneRange(t *testing.T) {
	// Sanity: both kernel classes land in a plausible 0.01–2 IPC band.
	m := NewModel(device.R9280X())
	for _, k := range []KernelCost{computeBound(), memoryBound()} {
		ipc := m.Kernel(k).IPC
		if ipc <= 0.001 || ipc > 4 {
			t.Errorf("IPC = %g, want plausible (0.001, 4]", ipc)
		}
	}
	// Memory-bound, high-miss kernels have lower IPC than compute kernels.
	if m.Kernel(memoryBound()).IPC >= m.Kernel(computeBound()).IPC {
		t.Error("memory-bound IPC not lower than compute-bound IPC")
	}
}

func TestQuickTimeMonotoneInItems(t *testing.T) {
	m := NewModel(device.A10_7850K())
	f := func(a, b uint32) bool {
		x, y := int(a%1<<22)+1, int(b%1<<22)+1
		if x > y {
			x, y = y, x
		}
		kx, ky := memoryBound(), memoryBound()
		kx.Items, ky.Items = x, y
		return m.Kernel(kx).TimeNs <= m.Kernel(ky).TimeNs+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickTimeMonotoneInClock(t *testing.T) {
	f := func(a, b uint16) bool {
		ca, cb := int(a%1800)+100, int(b%1800)+100
		if ca > cb {
			ca, cb = cb, ca
		}
		ma, mb := NewModel(device.R9280X()), NewModel(device.R9280X())
		ma.SetCoreClock(ca)
		mb.SetCoreClock(cb)
		k := computeBound()
		return ma.Kernel(k).TimeNs >= mb.Kernel(k).TimeNs-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickTimeMonotoneInMissRate(t *testing.T) {
	m := NewModel(device.R9280X())
	f := func(a, b uint8) bool {
		ma, mb := float64(a)/255, float64(b)/255
		if ma > mb {
			ma, mb = mb, ma
		}
		ka, kb := memoryBound(), memoryBound()
		ka.MissRate, kb.MissRate = ma, mb
		return m.Kernel(ka).TimeNs <= m.Kernel(kb).TimeNs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickTimeMonotoneInSerialFraction(t *testing.T) {
	m := NewModel(device.A10_7850K())
	f := func(a, b uint8) bool {
		sa, sb := float64(a)/256, float64(b)/256
		if sa > sb {
			sa, sb = sb, sa
		}
		ka, kb := computeBound(), computeBound()
		ka.SerialFraction, kb.SerialFraction = sa, sb
		return m.Kernel(ka).TimeNs <= m.Kernel(kb).TimeNs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickMemEffMonotone(t *testing.T) {
	m := NewModel(device.R9280X())
	f := func(a, b uint8) bool {
		ea := 0.1 + 0.9*float64(a)/255
		eb := 0.1 + 0.9*float64(b)/255
		if ea > eb {
			ea, eb = eb, ea
		}
		ka, kb := memoryBound(), memoryBound()
		ka.MemEff, kb.MemEff = ea, eb
		// Better MemEff (higher) → faster or equal.
		return m.Kernel(kb).TimeNs <= m.Kernel(ka).TimeNs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAccessorsAndPrecisionString(t *testing.T) {
	m := NewModel(device.R9280X())
	if m.dev.Name != device.R9280X().Name {
		t.Error("model built for the wrong device")
	}
	m.SetCoreClock(500)
	m.SetMemClock(700)
	if m.CoreClock() != 500 || m.mem.PeakBandwidthGBs() != device.R9280X().BandwidthAt(700) {
		t.Error("clock overrides not applied")
	}
	if Single.String() != "single" || Double.String() != "double" {
		t.Error("Precision.String wrong")
	}
	if m.mem == nil {
		t.Error("model has no memory system")
	}
}

func TestSetCoreClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetCoreClock(-1) did not panic")
		}
	}()
	NewModel(device.R9280X()).SetCoreClock(-1)
}
