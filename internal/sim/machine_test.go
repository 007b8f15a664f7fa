package sim

import (
	"sync"
	"testing"

	"hetbench/internal/sim/device"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

func cost() timing.KernelCost {
	return timing.KernelCost{Items: 1 << 16, SPFlops: 100, LoadBytes: 16, Instrs: 50, MissRate: 0.3, Coalesce: 1, VecEff: 1}
}

func TestStockMachines(t *testing.T) {
	apu := NewAPU()
	if !apu.Unified() {
		t.Error("APU must be unified")
	}
	if apu.Link() != nil {
		t.Error("APU must have no PCIe link")
	}
	dgpu := NewDGPU()
	if dgpu.Unified() {
		t.Error("dGPU machine must not be unified")
	}
	if dgpu.Link() == nil {
		t.Error("dGPU machine must have a PCIe link")
	}
	if apu.Name() == "" || dgpu.Name() == "" {
		t.Error("machines must be named")
	}
	if dgpu.host.Kind != device.KindCPU || dgpu.Accelerator().Kind != device.KindDiscreteGPU {
		t.Error("dGPU machine device kinds wrong")
	}
}

func TestKernelAdvancesClock(t *testing.T) {
	m := NewAPU()
	r, _ := m.Launch(OnAccelerator, "k1", cost())
	if r.TimeNs <= 0 {
		t.Fatal("kernel time not positive")
	}
	if m.ElapsedNs() != r.TimeNs {
		t.Errorf("clock = %g, want %g", m.ElapsedNs(), r.TimeNs)
	}
	if m.KernelNs() != r.TimeNs || m.TransferNs() != 0 {
		t.Error("split clocks wrong after kernel")
	}
}

func TestTransfersFreeOnAPUCostlyOnDGPU(t *testing.T) {
	apu, dgpu := NewAPU(), NewDGPU()
	const bytes = 240 << 20 // the XSBench lookup table
	if ns := apu.TransferToDevice("xs table", bytes); ns != 0 {
		t.Errorf("APU transfer cost %g ns, want 0", ns)
	}
	ns := dgpu.TransferToDevice("xs table", bytes)
	if ns <= 0 {
		t.Fatal("dGPU transfer cost nothing")
	}
	if ms := ns / 1e6; ms < 30 || ms > 60 {
		t.Errorf("240 MB over PCIe = %g ms, want ≈40", ms)
	}
	if dgpu.TransferNs() != ns || dgpu.KernelNs() != 0 {
		t.Error("split clocks wrong after transfer")
	}
	if dgpu.Link().Stats().BytesToDevice != bytes {
		t.Error("PCIe ledger not updated")
	}
	dgpu.TransferFromDevice("result", 1024)
	if dgpu.Link().Stats().TransfersFromDevice != 1 {
		t.Error("d2h not recorded")
	}
}

func TestHostVsAcceleratorTargets(t *testing.T) {
	m := NewDGPU()
	k := cost()
	rHost, _ := m.Launch(OnHost, "k", k)
	rAccel, _ := m.Launch(OnAccelerator, "k", k)
	// The 32-CU GPU must beat the 4-core CPU on this parallel kernel.
	if rAccel.TimeNs >= rHost.TimeNs {
		t.Errorf("accelerator (%g ns) not faster than host (%g ns)", rAccel.TimeNs, rHost.TimeNs)
	}
}

// The tracer's span log records each kernel and transfer as it happens:
// kind, direction, name and limiting bound, in issue order. ResetClock
// zeroes the clock and leaves the log alone.
func TestEventLog(t *testing.T) {
	m := NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	m.TransferToDevice("in", 4096)
	m.Launch(OnAccelerator, "work", cost())
	m.TransferFromDevice("out", 4096)
	sp := tr.Spans()
	if len(sp) != 3 {
		t.Fatalf("logged %d spans, want 3", len(sp))
	}
	if sp[0].Kind != trace.KindTransfer || sp[0].Dir != "h2d" || sp[0].Bytes != 4096 ||
		sp[1].Kind != trace.KindKernel ||
		sp[2].Kind != trace.KindTransfer || sp[2].Dir != "d2h" {
		t.Errorf("spans = %+v, want h2d, kernel, d2h", sp)
	}
	if sp[1].Name != "work" || sp[1].Bound == "" {
		t.Error("kernel span missing name/bound")
	}
	m.ResetClock()
	if m.ElapsedNs() != 0 || tr.Len() != 3 {
		t.Errorf("ResetClock: clock %g ns, %d spans, want 0 and 3", m.ElapsedNs(), tr.Len())
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative transfer did not panic")
		}
	}()
	NewDGPU().TransferToDevice("bad", -1)
}

func TestConcurrentClock(t *testing.T) {
	m := NewAPU()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				m.Launch(OnAccelerator, "k", cost())
			}
		}()
	}
	wg.Wait()
	r1, _ := NewAPU().Launch(OnAccelerator, "k", cost())
	one := r1.TimeNs
	want := one * 400
	got := m.ElapsedNs()
	if got < want*0.999 || got > want*1.001 {
		t.Errorf("concurrent clock = %g, want %g", got, want)
	}
}

func TestNewCustomValidates(t *testing.T) {
	bad := device.R9280X()
	bad.ComputeUnits = 0
	defer func() {
		if recover() == nil {
			t.Error("NewCustom with invalid device did not panic")
		}
	}()
	NewCustom("broken", device.HostCPU(), bad, nil)
}
