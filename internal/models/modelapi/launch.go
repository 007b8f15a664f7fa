package modelapi

import (
	"hetbench/internal/fault"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Launch is one accelerator kernel launch handed to LaunchResilient: the
// kernel, its measured per-item counters and its accelerator cost under
// the runtime's profile.
type Launch struct {
	Spec  KernelSpec
	Items int
	Per   exec.Counters
	Cost  timing.KernelCost
}

// Recovery holds the hooks through which a runtime's transfer strategy
// prices recovery from a failed launch. They are kept apart from Launch,
// whose contents escape into the machine's ledger, so that hook closures
// stay on the caller's stack.
type Recovery struct {
	// Restage re-establishes the launch's device inputs before each
	// retry. Required.
	Restage func()
	// Sync brings device-resident data home before the host fallback
	// runs. Required.
	Sync func()
	// RoundTrip calls Restage again after the host fallback, so later
	// kernels find their inputs back on the device.
	RoundTrip bool
}

// LaunchResilient issues one accelerator launch under the machine's fault
// policy — the launch path the GPU runtimes share. When the machine has a
// co-execution planner attached (sim.Machine.SetCoexec), every launch but
// an Irregular one goes to it, costed on the host as well: irregular
// kernels stay single-device, matching the paper's observation that
// generated code quality collapses on them. Without a planner the host
// side is never costed. Otherwise transient failures (launch rejection,
// watchdog-killed hang, device loss) are retried with exponential
// backoff, calling rec.Restage before each retry; a silent bit flip is
// routed to the bound corruption targets (detected later by end-to-end
// checksum); and once the retry budget is spent the launch degrades to
// the host CPU between rec.Sync and, with rec.RoundTrip, rec.Restage.
// With no injector attached this is one sim.Machine.Launch.
func (r *Runtime) LaunchResilient(l *Launch, rec Recovery) timing.Result {
	m := r.machine
	if l.Spec.Class != Irregular {
		host := func() timing.KernelCost { return l.Spec.Cost(r.host, l.Items, l.Per) }
		if res, ok := m.LaunchKernelSplit(l.Spec.Name, l.Cost, host); ok {
			return res
		}
	}
	res, ev := m.Launch(sim.OnAccelerator, l.Spec.Name, l.Cost)
	if ev == nil {
		return res
	}
	pol := m.FaultPolicy()
	for attempt := 1; ; attempt++ {
		if ev.Kind == fault.BitFlip {
			// The launch completed; the corruption surfaces at the run's
			// end-to-end checksum, not here.
			r.corrupt.Corrupt(m.FaultInjector())
			return res
		}
		if attempt >= pol.MaxAttempts {
			break
		}
		m.ChargeBackoffNs(l.Spec.Name, pol.BackoffNs(attempt))
		rec.Restage()
		res, ev = m.Launch(sim.OnAccelerator, l.Spec.Name, l.Cost)
		if ev == nil {
			return res
		}
	}
	m.NoteFallback(l.Spec.Name)
	rec.Sync()
	res = r.LaunchOnHost(l.Spec.Name+"(cpu-fallback)", l.Spec, l.Items, l.Per)
	if rec.RoundTrip {
		rec.Restage()
	}
	return res
}
