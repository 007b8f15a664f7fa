package sim

import (
	"math"
	"strings"
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/trace"
)

func faultPolicy() fault.Policy { return fault.DefaultPolicy() }

// launchUntil drives checked launches until the injector yields an event,
// returning it (the test configs make one near-certain within a few draws).
func launchUntil(t *testing.T, m *Machine, name string) *fault.Event {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if _, ev := m.Launch(OnAccelerator, name, cost()); ev != nil {
			return ev
		}
	}
	t.Fatal("no fault drawn in 1000 launches at a 0.75 rate")
	return nil
}

func TestCheckedLaunchWithoutInjector(t *testing.T) {
	m := NewDGPU()
	r, ev := m.Launch(OnAccelerator, "k", cost())
	if ev != nil {
		t.Fatal("launch without injector produced a fault event")
	}
	if want := m.AcceleratorModel().Kernel(cost()); r != want || m.ElapsedNs() != want.TimeNs {
		t.Error("launch without injector diverges from the timing model")
	}
	if m.FaultNs() != 0 {
		t.Error("fault clock nonzero without injector")
	}
}

func TestCheckedLaunchFail(t *testing.T) {
	m := NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1, LaunchFailRate: 0.75}), faultPolicy())
	ev := launchUntil(t, m, "k")
	if ev.Kind != fault.LaunchFail {
		t.Fatalf("event kind %q, want launch-fail", ev.Kind)
	}
	if m.FaultNs() <= 0 {
		t.Error("failed launch charged no fault time")
	}
	if got := m.ElapsedNs() - m.KernelNs() - m.FaultNs(); got != 0 {
		t.Errorf("clock does not split into kernel+fault time (residue %g)", got)
	}
}

func TestCheckedLaunchHangChargesWatchdog(t *testing.T) {
	m := NewDGPU()
	pol := faultPolicy()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1, HangRate: 0.75}), pol)
	before := m.FaultNs()
	ev := launchUntil(t, m, "k")
	if ev.Kind != fault.Hang {
		t.Fatalf("event kind %q, want hang", ev.Kind)
	}
	if got := m.FaultNs() - before; got != pol.WatchdogNs {
		t.Errorf("hang charged %g ns, want the %g ns watchdog deadline", got, pol.WatchdogNs)
	}
	if m.Resilience().WatchdogKills != 1 {
		t.Errorf("WatchdogKills = %d, want 1", m.Resilience().WatchdogKills)
	}
}

func TestCheckedLaunchBitFlipStillRuns(t *testing.T) {
	m := NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1, BitFlipRate: 0.75}), faultPolicy())
	kernels := m.KernelNs()
	ev := launchUntil(t, m, "k")
	if ev.Kind != fault.BitFlip {
		t.Fatalf("event kind %q, want bit-flip", ev.Kind)
	}
	if m.KernelNs() <= kernels {
		t.Error("bit-flipped launch did not charge kernel time (it completes)")
	}
	if m.FaultNs() != 0 {
		t.Error("silent corruption must not charge fault time")
	}
}

// Host launches never draw a fault: the injector models accelerator
// failures, and the host is where failed launches fall back to.
func TestUncheckedLaunchBypassesInjector(t *testing.T) {
	m := NewDGPU()
	inj := fault.New(fault.Config{Seed: 1, LaunchFailRate: 0.75})
	m.SetFaultInjector(inj, faultPolicy())
	for i := 0; i < 100; i++ {
		if r, ev := m.Launch(OnHost, "k", cost()); ev != nil || r.TimeNs <= 0 {
			t.Fatal("host launch drew a fault")
		}
	}
	if inj.Total() != 0 {
		t.Errorf("injector consulted %d times by host launches", inj.Total())
	}
}

func TestTransferRetransmission(t *testing.T) {
	clean := NewDGPU()
	base := clean.TransferToDevice("buf", 1<<20)

	m := NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 2, TransferCorruptRate: 0.75}), faultPolicy())
	for i := 0; i < 200 && m.Resilience().Retransmits == 0; i++ {
		m.TransferToDevice("buf", 1<<20)
	}
	rs := m.Resilience()
	if rs.Retransmits == 0 {
		t.Fatal("no retransmission in 200 transfers at a 0.75 corruption rate")
	}
	if want := float64(rs.Retransmits) * base; m.FaultNs() != want {
		t.Errorf("fault time %g, want %d retransmits × %g ns", m.FaultNs(), rs.Retransmits, base)
	}
	// Good data still arrived exactly once per call: transferNs counts
	// only the successful passes.
	if m.FaultNs() <= 0 || m.TransferNs() <= 0 {
		t.Error("split clocks missing after retransmission")
	}
}

func TestTransferWaitsOutDeviceLoss(t *testing.T) {
	m := NewDGPU()
	inj := fault.New(fault.Config{Seed: 1, DeviceLossRate: 0.75, DeviceLossNs: 5e4})
	m.SetFaultInjector(inj, faultPolicy())
	for i := 0; i < 1000 && inj.LostUntilNs() <= m.ElapsedNs(); i++ {
		m.Launch(OnAccelerator, "k", cost())
	}
	if inj.LostUntilNs() <= m.ElapsedNs() {
		t.Fatal("no device loss drawn")
	}
	wait := inj.LostUntilNs() - m.ElapsedNs()
	faultBefore := m.FaultNs()
	m.TransferToDevice("buf", 1<<10)
	if m.Resilience().DeviceWaits != 1 {
		t.Fatalf("DeviceWaits = %d, want 1", m.Resilience().DeviceWaits)
	}
	if got := m.FaultNs() - faultBefore; got < wait {
		t.Errorf("transfer waited %g ns, want at least the %g ns left in the loss window", got, wait)
	}
}

// Queued staging pays what a serial transfer pays, on its own queue: it
// waits out a device-loss window and resends each CRC-failed pass. The
// [device-wait] and [retransmit] spans land at queue positions, back to
// back with the copies, and the machine clock moves only at Merge.
func TestQueuedTransferFaults(t *testing.T) {
	const bytes = 1 << 20
	ns := NewDGPU().BeginQueues().RunTransfer(OnAccelerator, EvHostToDevice, "buf", bytes, 0)

	m := NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	m.Launch(OnAccelerator, "warm", cost()) // offset the queue start
	inj := fault.New(fault.Config{Seed: 1, DeviceLossRate: 0.75, DeviceLossNs: 5e4})
	for inj.LostUntilNs() == 0 {
		inj.Launch(m.ElapsedNs())
	}
	m.SetFaultInjector(inj, faultPolicy())
	clock := m.ElapsedNs()
	q := m.BeginQueues()
	wait := inj.LostUntilNs() - q.StartNs()
	if done := q.RunTransfer(OnHost, EvDeviceToHost, "buf", bytes, 0); done != wait+ns {
		t.Errorf("copy finished at %g ns, want the %g ns wait plus %g ns of link time", done, wait, ns)
	}
	if rs := m.Resilience(); rs.DeviceWaits != 1 || m.FaultNs() != wait {
		t.Errorf("DeviceWaits %d, fault time %g ns; want 1 wait of %g ns", rs.DeviceWaits, m.FaultNs(), wait)
	}
	if m.ElapsedNs() != clock {
		t.Error("queued transfer moved the machine clock before Merge")
	}
	checkQueueTiles(t, tr, q.StartNs(), "[device-wait]")

	m = NewDGPU()
	tr = trace.New()
	m.SetTracer(tr)
	m.Launch(OnAccelerator, "warm", cost())
	m.SetFaultInjector(fault.New(fault.Config{Seed: 2, TransferCorruptRate: 0.75}), faultPolicy())
	q = m.BeginQueues()
	prev := 0.0
	for i := 0; i < 20; i++ {
		before := m.Resilience().Retransmits
		done := q.RunTransfer(OnAccelerator, EvHostToDevice, "buf", bytes, 0)
		resent := m.Resilience().Retransmits - before
		if want := prev + float64(resent+1)*ns; math.Abs(done-want) > 1e-9*want {
			t.Fatalf("copy %d finished at %g ns, want %g (%d resends of %g ns)", i, done, want, resent, ns)
		}
		prev = done
	}
	if m.Resilience().Retransmits == 0 {
		t.Fatal("no retransmission in 20 queued copies at a 0.75 corruption rate")
	}
	checkQueueTiles(t, tr, q.StartNs(), "[retransmit]")
}

// checkQueueTiles asserts that the traced PCIe spans (copies and their
// faults, the first named with suffix) run back to back from the queue
// start: each fault booked at its queue position, not the machine clock.
func checkQueueTiles(t *testing.T, tr *trace.Tracer, startNs float64, suffix string) {
	t.Helper()
	at, faults := startNs, 0
	for _, s := range tr.Spans() {
		if s.Track != trace.TrackPCIe {
			continue
		}
		if s.Kind == trace.KindFault {
			faults++
			if !strings.HasSuffix(s.Name, suffix) {
				t.Errorf("fault span %q, want a %s span", s.Name, suffix)
			}
		}
		if math.Abs(s.StartNs-at) > 1e-9*at {
			t.Fatalf("%s span %q starts at %g ns, want the queue position %g", s.Kind, s.Name, s.StartNs, at)
		}
		at = s.EndNs()
	}
	if faults == 0 {
		t.Errorf("no %s fault span on the PCIe track", suffix)
	}
}

func TestBackoffAndFallbackAccounting(t *testing.T) {
	m := NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1}), faultPolicy())
	m.ChargeBackoffNs("k", 1000)
	m.ChargeBackoffNs("k", 2000)
	m.NoteFallback("k")
	rs := m.Resilience()
	if rs.Retries != 2 || rs.BackoffNs != 3000 || rs.Fallbacks != 1 {
		t.Errorf("stats = %+v, want 2 retries / 3000 ns backoff / 1 fallback", rs)
	}
	if m.FaultNs() != 3000 || m.ElapsedNs() != 3000 {
		t.Error("backoff not charged to the clocks as fault time")
	}
}

func TestResetClockClearsFaultState(t *testing.T) {
	m := NewDGPU()
	inj := fault.New(fault.Config{Seed: 1, DeviceLossRate: 0.75, DeviceLossNs: 1e9})
	m.SetFaultInjector(inj, faultPolicy())
	launchUntil(t, m, "k")
	if inj.LostUntilNs() == 0 {
		t.Fatal("loss window not opened")
	}
	m.ResetClock()
	if m.FaultNs() != 0 {
		t.Error("ResetClock left fault time on the clock")
	}
	if inj.LostUntilNs() != 0 {
		t.Error("ResetClock left the device-loss window open")
	}
	if m.Resilience().WatchdogKills+m.Resilience().Retries < 0 {
		t.Error("impossible") // stats survive reset by design; just touch them
	}
}

func TestFaultTraceSpansAndCounters(t *testing.T) {
	m := NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	inj := fault.New(fault.Config{Seed: 3, LaunchFailRate: 0.5, TransferCorruptRate: 0.5})
	m.SetFaultInjector(inj, faultPolicy())
	for i := 0; i < 50; i++ {
		m.Launch(OnAccelerator, "k", cost())
		m.TransferToDevice("buf", 1<<16)
	}
	m.ChargeBackoffNs("k", 500)
	m.NoteFallback("k")

	reg := tr.Metrics()
	if got := reg.Get(trace.CtrFaultPrefix + string(fault.LaunchFail)); got != float64(inj.Count(fault.LaunchFail)) {
		t.Errorf("launch-fail counter %g, injector saw %d", got, inj.Count(fault.LaunchFail))
	}
	if got := reg.Get(trace.CtrRetransmits); got != float64(m.Resilience().Retransmits) {
		t.Errorf("retransmit counter %g, machine saw %d", got, m.Resilience().Retransmits)
	}
	if reg.Get(trace.CtrFaultNs) != m.FaultNs() {
		t.Errorf("fault.ns counter %g != machine fault clock %g", reg.Get(trace.CtrFaultNs), m.FaultNs())
	}
	if reg.Get(trace.CtrRetries) != 1 || reg.Get(trace.CtrBackoffNs) != 500 || reg.Get(trace.CtrFallbacks) != 1 {
		t.Error("backoff/fallback counters not published")
	}
	var faultSpans int
	for _, s := range tr.Spans() {
		if s.Kind == trace.KindFault {
			faultSpans++
			if s.DurNs < 0 {
				t.Errorf("fault span %q has negative duration", s.Name)
			}
		}
	}
	if faultSpans == 0 {
		t.Error("no KindFault spans emitted")
	}
}
