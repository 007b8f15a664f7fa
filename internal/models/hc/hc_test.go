package hc

import (
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

func spec() modelapi.KernelSpec {
	return modelapi.KernelSpec{Name: "hck", Class: modelapi.Regular, MissRate: 0.3, Coalesce: 1}
}

// heavy is a compute-heavy kernel's per-item work.
var heavy = exec.Counters{SPFlops: 500, LoadBytes: 16, Instrs: 520}

func TestSyncCopiesChargeClock(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	rt.Copy("in", 1<<20)
	rt.CopyBack("out", 1<<20)
	if m.TransferNs() <= 0 {
		t.Error("sync copies charged nothing")
	}
	st := m.Link().Stats()
	if st.TransfersToDevice != 1 || st.TransfersFromDevice != 1 {
		t.Error("ledger wrong")
	}
}

// The Section VII claim: overlapping transfers with kernels hides transfer
// time. An async copy followed by enough kernel work must cost less than
// the same program with synchronous copies.
func TestAsyncOverlapHidesTransferTime(t *testing.T) {
	const bytes = 16 << 20

	mSync := sim.NewDGPU()
	rtSync := New(mSync)
	rtSync.Copy("table", bytes)
	for i := 0; i < 30; i++ {
		rtSync.Launch(spec(), 1<<20, heavy)
	}
	syncTotal := mSync.ElapsedNs()

	mAsync := sim.NewDGPU()
	rtAsync := New(mAsync)
	rtAsync.CopyAsync("table", bytes)
	for i := 0; i < 30; i++ {
		rtAsync.Launch(spec(), 1<<20, heavy)
	}
	hidden := rtAsync.Wait()
	asyncTotal := mAsync.ElapsedNs()

	if hidden != 0 {
		t.Errorf("transfer not fully hidden: %g ns left", hidden)
	}
	if asyncTotal >= syncTotal {
		t.Errorf("async total %g >= sync total %g", asyncTotal, syncTotal)
	}
	// Ledger still records the traffic.
	if mAsync.Link().Stats().BytesToDevice != bytes {
		t.Error("async traffic missing from ledger")
	}
}

func TestUnhiddenRemainderCharged(t *testing.T) {
	m := sim.NewDGPU()
	rt := New(m)
	rt.CopyAsync("big", 512<<20) // ≈85 ms of PCIe time
	rt.Launch(spec(), 1<<12, heavy)
	left := rt.Wait()
	if left <= 0 {
		t.Fatal("tiny kernel hid an 85 ms transfer")
	}
	if m.TransferNs() < left {
		t.Error("un-hidden remainder not charged to the clock")
	}
	if rt.Pending() != 0 {
		t.Error("pending not cleared by Wait")
	}
}

func TestAsyncFreeOnAPU(t *testing.T) {
	m := sim.NewAPU()
	rt := New(m)
	rt.CopyAsync("x", 1<<20)
	if rt.Pending() != 0 {
		t.Error("APU banked async transfer time")
	}
	if rt.Wait() != 0 {
		t.Error("APU Wait charged time")
	}
}

func TestNegativeAsyncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative async copy did not panic")
		}
	}()
	New(sim.NewDGPU()).CopyAsync("bad", -1)
}

func TestMachineAccessor(t *testing.T) {
	m := sim.NewDGPU()
	if New(m).Machine() != m {
		t.Error("Machine() wrong")
	}
}
