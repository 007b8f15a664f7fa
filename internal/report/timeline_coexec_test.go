package report_test

import (
	"strings"
	"testing"

	"hetbench/internal/report"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// A co-executed launch produces kernel spans on both the host and the
// accelerator tracks of the same run, and the Timeline must render them as
// time-overlapping bars — both anchored at the split's start, one line per
// device. This is the Gantt view the coexec experiment leans on.
func TestTimelineRendersOverlappingDeviceSpans(t *testing.T) {
	m := sim.NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	m.SetCoexec(sched.New(sched.Config{Policy: sched.Static}))

	cost := timing.KernelCost{
		Items: 1 << 14, SPFlops: 8, LoadBytes: 64, StoreBytes: 8,
		Instrs: 24, MissRate: 0.8, Coalesce: 0.95,
	}
	if _, ok := m.LaunchKernelSplit("axpy", cost, func() timing.KernelCost { return cost }); !ok {
		t.Fatal("split launch did not run")
	}

	spans := tr.Spans()
	var host, accel []trace.Span
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "axpy#") {
			continue
		}
		switch s.Track {
		case trace.TrackHost:
			host = append(host, s)
		case trace.TrackAccelerator:
			accel = append(accel, s)
		}
	}
	if len(host) == 0 || len(accel) == 0 {
		t.Fatalf("expected chunk spans on both tracks, got host=%d accel=%d", len(host), len(accel))
	}
	// The static split starts both devices at the queue origin: the first
	// chunk on each track must overlap in time.
	h, a := host[0], accel[0]
	if h.StartNs >= a.StartNs+a.DurNs || a.StartNs >= h.StartNs+h.DurNs {
		t.Fatalf("device spans do not overlap: host [%g,%g) accel [%g,%g)",
			h.StartNs, h.StartNs+h.DurNs, a.StartNs, a.StartNs+a.DurNs)
	}

	end := h.StartNs + h.DurNs
	if e := a.StartNs + a.DurNs; e > end {
		end = e
	}
	tl := report.NewTimeline("co-executed axpy", h.StartNs, end)
	for _, s := range append(host, accel...) {
		tl.Add(s.Track, s.Name, s.StartNs, s.DurNs)
	}
	out := tl.String()

	var hostBar, accelBar string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, trace.TrackHost) && hostBar == "" {
			hostBar = l[strings.Index(l, "|"):]
		}
		if strings.HasPrefix(l, trace.TrackAccelerator) && accelBar == "" {
			accelBar = l[strings.Index(l, "|"):]
		}
	}
	if hostBar == "" || accelBar == "" {
		t.Fatalf("timeline missing a device track:\n%s", out)
	}
	// Both first chunks start at the window origin, so both bars must be
	// anchored at column 0 — the rendered picture of device overlap.
	if !strings.HasPrefix(hostBar, "|#") || !strings.HasPrefix(accelBar, "|#") {
		t.Fatalf("device bars not anchored at the split start:\n%s", out)
	}
}
