package sim

import (
	"strings"
	"testing"

	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// halfAndHalf splits every launch evenly — the minimal planner for
// machine-side tests (the real policies live in internal/sched).
type halfAndHalf struct{ calls int }

func (p *halfAndHalf) LaunchSplit(m *Machine, l CoexecLaunch) timing.Result {
	p.calls++
	q := m.BeginQueues()
	h := l.Host
	h.Items = l.Host.Items / 2
	a := l.Accel
	a.Items = l.Accel.Items - h.Items
	q.RunChunk(OnAccelerator, l.Name, a)
	q.RunChunk(OnHost, l.Name, h)
	wall := q.Merge()
	return timing.Result{TimeNs: wall}
}

func TestLaunchKernelSplitWithoutPlanner(t *testing.T) {
	m := NewDGPU()
	if _, ok := m.LaunchKernelSplit("k", cost(), func() timing.KernelCost {
		t.Fatal("host side costed with no planner attached")
		return cost()
	}); ok {
		t.Fatal("split launch reported ok with no planner attached")
	}
	if m.ElapsedNs() != 0 {
		t.Error("declined split launch advanced the clock")
	}
}

func TestSetCoexecRoutesLaunches(t *testing.T) {
	m := NewDGPU()
	p := &halfAndHalf{}
	m.SetCoexec(p)
	if m.coexec == nil {
		t.Fatal("no planner attached after SetCoexec")
	}
	r, ok := m.LaunchKernelSplit("k", cost(), cost)
	if !ok || p.calls != 1 {
		t.Fatalf("split launch ok=%v planner calls=%d, want routed once", ok, p.calls)
	}
	if r.TimeNs <= 0 || m.ElapsedNs() != r.TimeNs {
		t.Errorf("merged result %g ns vs clock %g ns", r.TimeNs, m.ElapsedNs())
	}
}

// The queue pair must overlap the two devices: the merged clock advance is
// the longer queue, not the sum, and both clocks beat the single-device
// alternative for this even split.
func TestCoexecQueueOverlapsDevices(t *testing.T) {
	m := NewDGPU()
	q := m.BeginQueues()
	ra := q.RunChunk(OnAccelerator, "k", cost())
	rh := q.RunChunk(OnHost, "k", cost())
	wall := q.Merge()
	longer, shorter := ra.TimeNs, rh.TimeNs
	if shorter > longer {
		longer, shorter = shorter, longer
	}
	if wall != longer {
		t.Errorf("merge advanced %g ns, want the longer queue %g ns", wall, longer)
	}
	if m.ElapsedNs() != wall || m.KernelNs() != wall {
		t.Errorf("clock %g / kernel %g ns, want both %g", m.ElapsedNs(), m.KernelNs(), wall)
	}
}

// Later chunks on one in-order queue are enqueued while their predecessor
// runs, so only the first exposes the fixed launch overhead.
func TestCoexecQueuePipelinesLaunchOverhead(t *testing.T) {
	m := NewDGPU()
	q := m.BeginQueues()
	first := q.RunChunk(OnAccelerator, "k", cost())
	second := q.RunChunk(OnAccelerator, "k", cost())
	if first.LaunchNs <= 0 {
		t.Fatal("first chunk carries no launch overhead")
	}
	if second.LaunchNs != 0 {
		t.Errorf("second chunk still charged %g ns launch overhead", second.LaunchNs)
	}
	if got, want := first.TimeNs-second.TimeNs, first.LaunchNs; got != want {
		t.Errorf("pipelining saved %g ns, want the launch overhead %g ns", got, want)
	}
}

// Co-executed chunks must appear as overlapping spans on the two device
// tracks, both starting at the queue-pair origin.
func TestCoexecQueueEmitsOverlappingSpans(t *testing.T) {
	m := NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	m.Launch(OnAccelerator, "warm", cost()) // offset the queue start
	q := m.BeginQueues()
	q.RunChunk(OnAccelerator, "split", cost())
	q.RunChunk(OnHost, "split", cost())
	q.Merge()

	var host, accel *trace.Span
	for _, s := range tr.Spans() {
		s := s
		if !strings.HasPrefix(s.Name, "split#") {
			continue
		}
		switch s.Track {
		case trace.TrackHost:
			host = &s
		case trace.TrackAccelerator:
			accel = &s
		}
	}
	if host == nil || accel == nil {
		t.Fatalf("missing chunk spans (host=%v accel=%v)", host != nil, accel != nil)
	}
	if host.StartNs != accel.StartNs {
		t.Errorf("chunk spans start at %g and %g ns, want the shared queue origin", host.StartNs, accel.StartNs)
	}
	if host.StartNs != q.StartNs() || q.StartNs() <= 0 {
		t.Errorf("spans start at %g ns, want queue origin %g ns (after warmup)", host.StartNs, q.StartNs())
	}
	// Overlap: each span begins before the other ends.
	if host.StartNs >= accel.StartNs+accel.DurNs || accel.StartNs >= host.StartNs+host.DurNs {
		t.Error("host and accelerator chunks do not overlap in virtual time")
	}
	if host.Name != "split#cpu0" || accel.Name != "split#acc0" {
		t.Errorf("chunk spans named %q and %q, want split#cpu0 and split#acc0", host.Name, accel.Name)
	}
}

// A kernel booked with a ready time past its queue's tail starts at the
// ready time; the gap is tallied as idle time on that queue only, and the
// returned completion time is relative to the queue origin.
func TestQueuePairIdlesUntilReady(t *testing.T) {
	m := NewDGPU()
	m.Launch(OnAccelerator, "warm", cost()) // offset the queue start
	q := m.BeginQueues()
	r1, fin1 := q.RunKernel(OnHost, "a", cost(), 0)
	if fin1 != r1.TimeNs || q.IdleNs(OnHost) != 0 {
		t.Fatalf("first kernel finished at %g (idle %g), want %g with no idle", fin1, q.IdleNs(OnHost), r1.TimeNs)
	}
	ready := fin1 + 5000
	r2, fin2 := q.RunKernel(OnHost, "b", cost(), ready)
	if fin2 != ready+r2.TimeNs {
		t.Errorf("second kernel finished at %g, want ready %g + %g", fin2, ready, r2.TimeNs)
	}
	wait := ready - fin1
	if got := q.IdleNs(OnHost); got != wait {
		t.Errorf("host idle %g ns, want the %g ns wait for the ready time", got, wait)
	}
	// A ready time already behind the queue tail costs no idle time.
	_, fin3 := q.RunKernel(OnHost, "c", cost(), 0)
	if q.IdleNs(OnHost) != wait || fin3 <= fin2 {
		t.Errorf("in-order booking finished at %g (idle %g), want after %g with idle unchanged", fin3, q.IdleNs(OnHost), fin2)
	}
	if q.IdleNs(OnAccelerator) != 0 {
		t.Errorf("accelerator idle %g ns with nothing booked there", q.IdleNs(OnAccelerator))
	}
	start := m.ElapsedNs()
	if wall := q.Merge(); wall != fin3 || m.ElapsedNs() != start+fin3 {
		t.Errorf("merge advanced %g ns (clock %g), want the host queue %g", wall, m.ElapsedNs()-start, fin3)
	}
}

// Distinct kernels on one queue are separate launches: unlike chunks of
// one co-executed launch, every booking pays its full launch overhead.
func TestQueuePairKernelsPayLaunchOverhead(t *testing.T) {
	m := NewDGPU()
	q := m.BeginQueues()
	first, _ := q.RunKernel(OnAccelerator, "a", cost(), 0)
	second, _ := q.RunKernel(OnAccelerator, "b", cost(), 0)
	if first.LaunchNs <= 0 {
		t.Fatal("first kernel carries no launch overhead")
	}
	if second.LaunchNs != first.LaunchNs || second.TimeNs != first.TimeNs {
		t.Errorf("second kernel %g ns (launch %g), want the first's %g ns (launch %g)",
			second.TimeNs, second.LaunchNs, first.TimeNs, first.LaunchNs)
	}
	if q.AvailNs(OnAccelerator) != first.TimeNs+second.TimeNs {
		t.Errorf("accelerator queue busy %g ns, want %g", q.AvailNs(OnAccelerator), first.TimeNs+second.TimeNs)
	}
}

// Queued staging is free on the unified APU and leaves the queue where it
// was; across PCIe it occupies the queue for the link time and lands in
// the link's traffic ledger.
func TestQueuePairTransfers(t *testing.T) {
	apu := NewAPU()
	q := apu.BeginQueues()
	if done := q.RunTransfer(OnAccelerator, EvHostToDevice, "in", 1<<20, 0); done != 0 {
		t.Errorf("APU transfer completed at %g ns, want 0 (unified memory)", done)
	}
	if q.Merge() != 0 || apu.TransferNs() != 0 {
		t.Error("APU queued transfer advanced a clock")
	}

	m := NewDGPU()
	q = m.BeginQueues()
	before := m.Link().Stats()
	in := q.RunTransfer(OnAccelerator, EvHostToDevice, "in", 1<<20, 100)
	out := q.RunTransfer(OnAccelerator, EvDeviceToHost, "out", 1<<20, 0)
	after := m.Link().Stats()
	if in <= 100 || out <= in {
		t.Errorf("dGPU transfers completed at %g and %g ns, want charged link time after the 100 ns ready time", in, out)
	}
	if q.IdleNs(OnAccelerator) != 100 {
		t.Errorf("accelerator idle %g ns, want the 100 ns wait", q.IdleNs(OnAccelerator))
	}
	if d := after.TransfersToDevice - before.TransfersToDevice; d != 1 || after.BytesToDevice-before.BytesToDevice != 1<<20 {
		t.Errorf("link ledger recorded %d h2d transfers (%d bytes), want 1 of 1 MiB", d, after.BytesToDevice-before.BytesToDevice)
	}
	if d := after.TransfersFromDevice - before.TransfersFromDevice; d != 1 {
		t.Errorf("link ledger recorded %d d2h transfers, want 1", d)
	}
	if q.AvailNs(OnAccelerator) != out {
		t.Errorf("accelerator queue busy until %g ns, want the last transfer's %g", q.AvailNs(OnAccelerator), out)
	}
}

func TestSetCoexecNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetCoexec(nil) did not panic")
		}
	}()
	NewDGPU().SetCoexec(nil)
}
