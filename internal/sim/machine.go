// Package sim composes the hardware substrates (device descriptions, the
// timing model, the PCIe link) into a Machine: one simulated heterogeneous
// platform on which the programming-model runtimes execute kernels and
// transfers while a virtual clock accumulates.
//
// Two stock machines mirror the paper's Section V setup: an AMD A10-7850K
// APU (unified memory, no staging copies) and the same APU hosting an AMD
// Radeon R9 280X across PCIe.
//
// Observability: a Machine emits structured spans and counters into an
// attached trace.Tracer (see SetTracer and the internal/trace package);
// with no tracer attached the hot paths pay only a nil check.
package sim

import (
	"fmt"
	"math"
	"sync"

	"hetbench/internal/fault"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/pcie"
	"hetbench/internal/sim/power"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// Target selects which side of the machine runs a kernel.
type Target int

const (
	// OnHost runs on the CPU cores.
	OnHost Target = iota
	// OnAccelerator runs on the GPU.
	OnAccelerator
)

// EventKind is a transfer's direction.
type EventKind string

// Transfer directions.
const (
	EvHostToDevice EventKind = "h2d"
	EvDeviceToHost EventKind = "d2h"
)

// Machine is one simulated heterogeneous platform. Methods are safe for
// concurrent use; the virtual clock serializes additions.
type Machine struct {
	name  string
	host  *device.Device
	accel *device.Device
	link  *pcie.Link // nil when memory is unified

	hostModel  *timing.Model
	accelModel *timing.Model

	mu      sync.Mutex
	clockNs float64
	// Split clocks let experiments report "kernel-only" time the way the
	// paper's Figure 8a/9a excludes data transfers. faultNs is virtual
	// time lost to injected faults and their recovery (failed attempts,
	// watchdog waits, backoff, retransmissions) — the numerator of the
	// faults experiment's recovery-overhead metric.
	kernelNs   float64
	transferNs float64
	faultNs    float64

	// Tracing state (all guarded by mu). proc is this machine's process
	// index in the tracer; spanStack holds the open run and iteration
	// spans kernels parent under.
	tracer    *trace.Tracer
	proc      int
	spanStack []uint64

	// Fault-injection state (guarded by mu). With faults nil the launch
	// and transfer hot paths pay only a nil check. resStats accumulates
	// for the machine's lifetime (not reset with the clock), so a
	// multi-attempt experiment cell reads one cumulative tally.
	faults   *fault.Injector
	policy   fault.Policy
	resStats ResilienceStats

	// Co-execution planner (guarded by mu). With coexec nil the split
	// launch path pays only a nil check (see LaunchKernelSplit).
	coexec CoexecPlanner
}

// ResilienceStats tallies recovery actions taken on one machine under
// fault injection. Counts accumulate for the machine's lifetime.
type ResilienceStats struct {
	Retries       int     // kernel relaunch attempts after a transient fault
	WatchdogKills int     // hung kernels killed at the watchdog deadline
	Fallbacks     int     // launches rerouted to the host CPU
	Retransmits   int     // CRC-failed PCIe transfers resent
	DeviceWaits   int     // transfers stalled waiting out a device loss
	BackoffNs     float64 // virtual time spent in retry backoff
}

// NewAPU returns the A10-7850K machine: 4 CPU cores + 8 GCN CUs on one die
// with unified memory (no PCIe link, zero-cost "transfers").
func NewAPU() *Machine {
	return newMachine("APU (A10-7850K)", device.HostCPU(), device.A10_7850K(), nil)
}

// NewDGPU returns the discrete machine: the A10-7850K as host plus an
// R9 280X across PCIe 3.0 x16.
func NewDGPU() *Machine {
	return newMachine("dGPU (R9 280X)", device.HostCPU(), device.R9280X(), pcie.Default())
}

// NewCustom builds a machine from parts. link may be nil for unified
// memory; accel may equal host for a CPU-only machine.
func NewCustom(name string, host, accel *device.Device, link *pcie.Link) *Machine {
	return newMachine(name, host, accel, link)
}

func newMachine(name string, host, accel *device.Device, link *pcie.Link) *Machine {
	if err := host.Validate(); err != nil {
		panic(fmt.Sprintf("sim: bad host: %v", err))
	}
	if err := accel.Validate(); err != nil {
		panic(fmt.Sprintf("sim: bad accelerator: %v", err))
	}
	if link != nil {
		if err := link.Validate(); err != nil {
			panic(fmt.Sprintf("sim: bad link: %v", err))
		}
	}
	return &Machine{
		name:       name,
		host:       host,
		accel:      accel,
		link:       link,
		hostModel:  timing.NewModel(host),
		accelModel: timing.NewModel(accel),
	}
}

// Name returns the machine's display name.
func (m *Machine) Name() string { return m.name }

// Accelerator returns the GPU device description.
func (m *Machine) Accelerator() *device.Device { return m.accel }

// Unified reports whether host and accelerator share one memory space.
func (m *Machine) Unified() bool { return m.link == nil }

// Link returns the PCIe link, or nil on unified machines.
func (m *Machine) Link() *pcie.Link { return m.link }

// AcceleratorModel exposes the accelerator timing model (for clock sweeps).
func (m *Machine) AcceleratorModel() *timing.Model { return m.accelModel }

// HostModel exposes the host timing model.
func (m *Machine) HostModel() *timing.Model { return m.hostModel }

// ---------------------------------------------------------------------
// Tracing.

// SetTracer attaches a tracer; the machine registers itself as a process
// and emits every subsequent kernel, transfer, fault, run and iteration
// span into it.
func (m *Machine) SetTracer(t *trace.Tracer) {
	if t == nil {
		panic("sim: SetTracer(nil); tracing is off by default")
	}
	proc := t.RegisterProcess(m.name)
	m.mu.Lock()
	m.tracer = t
	m.proc = proc
	m.spanStack = nil
	m.mu.Unlock()
}

// Tracer returns the attached tracer, or nil.
func (m *Machine) Tracer() *trace.Tracer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tracer
}

// InRun runs body inside the app-run span name ("LULESH/OpenCL"). Spans
// emitted while body runs (iterations, kernels, transfers) parent under
// it. The span closes when body returns or panics, so none is left open.
func (m *Machine) InRun(name string, body func()) {
	defer m.closeSpan(m.openSpan(trace.KindRun, name))
	body()
}

// InIteration runs body inside timestep/solver-iteration i's span, like
// InRun. The label is only formatted when a tracer is attached, keeping
// untraced loops free.
func (m *Machine) InIteration(i int, body func()) {
	if m.Tracer() == nil {
		body()
		return
	}
	defer m.closeSpan(m.openSpan(trace.KindIteration, fmt.Sprintf("iter %d", i)))
	body()
}

// phaseSpan is a run or iteration span between openSpan and closeSpan.
// The zero value (opened with no tracer attached) closes as a no-op.
type phaseSpan struct {
	id      uint64
	parent  uint64
	kind    trace.Kind
	name    string
	startNs float64
}

// openSpan takes a span ID and pushes the span at the current virtual
// clock, so IDs follow the order spans open.
func (m *Machine) openSpan(kind trace.Kind, name string) phaseSpan {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tracer == nil {
		return phaseSpan{}
	}
	sp := phaseSpan{
		id:      m.tracer.NewSpanID(),
		parent:  m.parentLocked(),
		kind:    kind,
		name:    name,
		startNs: m.clockNs,
	}
	m.spanStack = append(m.spanStack, sp.id)
	return sp
}

// closeSpan pops s and emits it, ending at the current virtual clock.
func (m *Machine) closeSpan(s phaseSpan) {
	if s.id == 0 {
		return
	}
	m.mu.Lock()
	dur := m.clockNs - s.startNs
	if dur < 0 {
		// The clock was reset while the span was open (apps reset at the
		// top of each Run); clamp rather than emit nonsense.
		dur = 0
	}
	// Pop this span (and anything left open above it) off the stack.
	for i := len(m.spanStack) - 1; i >= 0; i-- {
		if m.spanStack[i] == s.id {
			m.spanStack = m.spanStack[:i]
			break
		}
	}
	t, proc := m.tracer, m.proc
	m.mu.Unlock()
	t.Emit(trace.Span{
		ID: s.id, Parent: s.parent, Proc: proc,
		Track: trace.TrackPhases, Name: s.name, Kind: s.kind,
		StartNs: s.startNs, DurNs: dur,
	})
}

// parentLocked returns the innermost open span's ID (mu held).
func (m *Machine) parentLocked() uint64 {
	if n := len(m.spanStack); n > 0 {
		return m.spanStack[n-1]
	}
	return 0
}

// emitKernelLocked records one kernel launch's span and counters (mu held).
func (m *Machine) emitKernelLocked(target Target, name string, cost timing.KernelCost, r timing.Result, startNs float64) {
	dev, model, track := m.accel, m.accelModel, trace.TrackAccelerator
	if target == OnHost {
		dev, model, track = m.host, m.hostModel, trace.TrackHost
	}
	waves := int(math.Ceil(float64(cost.Items) / float64(dev.WavefrontSize)))
	m.tracer.Emit(trace.Span{
		Parent: m.parentLocked(), Proc: m.proc,
		Track: track, Name: name, Kind: trace.KindKernel,
		StartNs: startNs, DurNs: r.TimeNs,
		Device: dev.Name, Bound: r.Bound,
		Items: cost.Items, Wavefronts: waves,
	})

	reg := m.tracer.Metrics()
	reg.Add(trace.CtrKernelLaunches, 1)
	reg.Add(trace.CtrKernelNs, r.TimeNs)
	reg.Observe(trace.HistKernelNs, r.TimeNs)
	items := float64(cost.Items)
	traffic := items * (cost.LoadBytes + cost.StoreBytes)
	reg.Add(trace.CtrDRAMBytes, r.DRAMBytes)
	reg.Add(trace.CtrLLCMissBytes, traffic*cost.MissRate)
	reg.Add(trace.CtrLLCHitBytes, traffic*(1-cost.MissRate))
	reg.Add(trace.CtrLDSBytes, items*cost.LDSBytes)
	reg.Add(trace.CtrSPFlops, items*cost.SPFlops)
	reg.Add(trace.CtrDPFlops, items*cost.DPFlops)
	reg.Add(trace.CtrInstrs, items*cost.Instrs)
	prof := power.ProfileFor(dev)
	reg.Add(trace.CtrEnergyJ, prof.KernelEnergyJ(r.TimeNs, model.CoreClock(), dev.CoreClockMHz, r.DRAMBytes))
	reg.Add(trace.CtrKernelIPCNs, r.IPC*r.TimeNs)
	// Weight boundedness by the limiting term itself so fixed launch
	// overhead on small kernels does not masquerade as a resource bound.
	reg.Add(boundCounter(r.Bound), r.TimeNs-r.LaunchNs)
}

// boundCounter names the kernel.bound.*.ns counter of a limiting
// resource, one of the four timing.Result.Bound names.
func boundCounter(bound string) trace.Counter {
	switch bound {
	case "alu":
		return trace.CtrKernelBoundALUNs
	case "mem":
		return trace.CtrKernelBoundMemNs
	case "lds":
		return trace.CtrKernelBoundLDSNs
	case "issue":
		return trace.CtrKernelBoundIssueNs
	}
	panic(fmt.Sprintf("sim: unknown kernel bound %q", bound))
}

// emitTransferLocked records one transfer's span and counters (mu held).
func (m *Machine) emitTransferLocked(kind EventKind, name string, bytes int64, ns, startNs float64) {
	dir := "h2d"
	if kind == EvDeviceToHost {
		dir = "d2h"
	}
	m.tracer.Emit(trace.Span{
		Parent: m.parentLocked(), Proc: m.proc,
		Track: trace.TrackPCIe, Name: name, Kind: trace.KindTransfer,
		StartNs: startNs, DurNs: ns,
		Dir: dir, Bytes: bytes,
	})
	reg := m.tracer.Metrics()
	reg.Add(trace.CtrTransferCount, 1)
	reg.Add(trace.CtrTransferNs, ns)
	reg.Observe(trace.HistTransferNs, ns)
	if kind == EvDeviceToHost {
		reg.Add(trace.CtrBytesD2H, float64(bytes))
	} else {
		reg.Add(trace.CtrBytesH2D, float64(bytes))
	}
}

// ---------------------------------------------------------------------
// Kernels and transfers.

// chargeKernelLocked books a successful kernel launch on the clocks and
// tracer (mu held).
func (m *Machine) chargeKernelLocked(target Target, name string, cost timing.KernelCost, r timing.Result) {
	start := m.clockNs
	m.clockNs += r.TimeNs
	m.kernelNs += r.TimeNs
	if m.tracer != nil {
		m.emitKernelLocked(target, name, cost, r, start)
	}
}

// Launch advances the virtual clock by the modeled duration of a kernel
// with the given cost on the chosen target, and returns the timing
// breakdown. With a fault injector attached, an accelerator launch may be
// perturbed; host launches never fault. A non-nil fault.Event reports
// what happened: for LaunchFail, Hang and DeviceLost the kernel did not
// run (the zero Result is returned) and the clock has already been
// charged for the failed attempt — launch issue cost for transient
// failures and device loss, the full watchdog deadline for a hang. For
// BitFlip the launch completed normally (full Result, clock charged) but
// one output element was silently corrupted; the caller routes the event
// to its Corruptor. With no injector attached the fault path costs a
// single nil check.
func (m *Machine) Launch(target Target, name string, cost timing.KernelCost) (timing.Result, *fault.Event) {
	model := m.accelModel
	if target == OnHost {
		model = m.hostModel
	}
	r := model.Kernel(cost)
	m.mu.Lock()
	defer m.mu.Unlock()
	kind := fault.None
	if m.faults != nil && target == OnAccelerator {
		kind = m.faults.Launch(m.clockNs)
	}
	switch kind {
	case fault.None:
		m.chargeKernelLocked(target, name, cost, r)
		return r, nil
	case fault.BitFlip:
		// The launch itself succeeds; the corruption is silent until an
		// end-to-end check notices.
		m.chargeKernelLocked(target, name, cost, r)
		if m.tracer != nil {
			m.tracer.Metrics().Add(faultCounter(kind), 1)
		}
		return r, &fault.Event{Kind: kind, Op: name}
	case fault.Hang:
		// The kernel never completes; the watchdog kills it at the
		// deadline, so the full deadline is lost.
		m.resStats.WatchdogKills++
		m.chargeFaultLocked(trace.TrackAccelerator, name+" [hang]", m.policy.WatchdogNs, 0, &m.clockNs)
		if m.tracer != nil {
			reg := m.tracer.Metrics()
			reg.Add(faultCounter(kind), 1)
			reg.Add(trace.CtrWatchdogKills, 1)
		}
		return timing.Result{}, &fault.Event{Kind: kind, Op: name}
	default: // LaunchFail, DeviceLost: the launch is rejected at issue.
		m.chargeFaultLocked(trace.TrackAccelerator, name+" ["+string(kind)+"]", r.LaunchNs, 0, &m.clockNs)
		if m.tracer != nil {
			m.tracer.Metrics().Add(faultCounter(kind), 1)
		}
		return timing.Result{}, &fault.Event{Kind: kind, Op: name}
	}
}

// faultCounter names kind's injected-fault counter ("fault.hang"). It is
// the one counter name built at run time: each kind's spelling is
// defined once, in fault, and the registry checks the result when it
// exports it.
func faultCounter(kind fault.Kind) trace.Counter {
	return trace.CtrFaultPrefix + trace.Counter(kind)
}

// chargeFaultLocked books ns of fault/recovery time at position *at on a
// timeline that starts at base — the machine clock (base 0) or a queue's
// tail (base its start) — advancing *at past it. The time also lands on
// the fault split clock and, when traced, as a KindFault span plus the
// fault.ns counter (mu held).
func (m *Machine) chargeFaultLocked(track, name string, ns, base float64, at *float64) {
	start := *at
	*at += ns
	m.faultNs += ns
	if m.tracer != nil {
		m.tracer.Emit(trace.Span{
			Parent: m.parentLocked(), Proc: m.proc,
			Track: track, Name: name, Kind: trace.KindFault,
			StartNs: base + start, DurNs: ns,
		})
		reg := m.tracer.Metrics()
		reg.Add(trace.CtrFaultNs, ns)
		reg.Observe(trace.HistFaultNs, ns)
	}
}

// TransferToDevice moves bytes host→device. On unified machines it is free
// (the paper's APU advantage); across PCIe it costs link time.
func (m *Machine) TransferToDevice(name string, bytes int64) float64 {
	return m.transfer(EvHostToDevice, name, bytes)
}

// TransferFromDevice moves bytes device→host.
func (m *Machine) TransferFromDevice(name string, bytes int64) float64 {
	return m.transfer(EvDeviceToHost, name, bytes)
}

// maxRetransmits caps CRC-retry loops on one transfer so a pathological
// corruption rate still terminates.
const maxRetransmits = 64

// linkNs records one copy in the link's traffic ledger and returns its
// link time in ns; on unified machines the copy is free.
func (m *Machine) linkNs(kind EventKind, bytes int64) float64 {
	if m.link == nil {
		return 0
	}
	if kind == EvHostToDevice {
		return m.link.ToDevice(bytes) * 1e3
	}
	return m.link.FromDevice(bytes) * 1e3
}

// linkFaultsLocked books the fault time one PCIe copy of ns pays before
// its good pass, at position *at on a timeline that starts at base (see
// chargeFaultLocked): a stall while the device is lost, then one full
// pass over the wire per CRC-failed attempt. Each fault advances *at by
// itself, so the machine clock sums exactly as a serial run books it
// (mu held).
func (m *Machine) linkFaultsLocked(name string, ns, base float64, at *float64) {
	if m.faults == nil || m.link == nil {
		return
	}
	// A DMA engine cannot move data while the device is gone: stall until
	// the loss window closes, booking the wait as fault time.
	if until := m.faults.LostUntilNs(); until > base+*at {
		m.resStats.DeviceWaits++
		m.chargeFaultLocked(trace.TrackPCIe, name+" [device-wait]", until-(base+*at), base, at)
	}
	// Each CRC-failed attempt burns a full pass over the wire before the
	// receiver rejects it and requests retransmission.
	for i := 0; i < maxRetransmits; i++ {
		if m.faults.Transfer(base+*at) != fault.TransferCorrupt {
			break
		}
		m.resStats.Retransmits++
		m.chargeFaultLocked(trace.TrackPCIe, name+" [retransmit]", ns, base, at)
		if m.tracer != nil {
			reg := m.tracer.Metrics()
			reg.Add(faultCounter(fault.TransferCorrupt), 1)
			reg.Add(trace.CtrRetransmits, 1)
		}
	}
}

func (m *Machine) transfer(kind EventKind, name string, bytes int64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative transfer %d", bytes))
	}
	ns := m.linkNs(kind, bytes)
	m.mu.Lock()
	m.linkFaultsLocked(name, ns, 0, &m.clockNs)
	start := m.clockNs
	m.clockNs += ns
	m.transferNs += ns
	if m.tracer != nil {
		m.emitTransferLocked(kind, name, bytes, ns, start)
	}
	m.mu.Unlock()
	return ns
}

// AddTransferTime advances the clock for data movement accounted outside
// the link helpers (e.g. the un-hidden remainder of an asynchronous
// transfer in the HC model).
func (m *Machine) AddTransferTime(name string, ns float64) {
	if ns < 0 {
		panic(fmt.Sprintf("sim: negative transfer time %g", ns))
	}
	m.mu.Lock()
	start := m.clockNs
	m.clockNs += ns
	m.transferNs += ns
	if m.tracer != nil {
		m.emitTransferLocked(EvHostToDevice, name, 0, ns, start)
	}
	m.mu.Unlock()
}

// ---------------------------------------------------------------------
// Fault injection.

// SetFaultInjector attaches a fault injector and the resilience policy
// whose machine-level parameters (the watchdog deadline) govern how
// injected faults are charged. Panics on a nil injector or invalid policy;
// use ClearFaultInjector to detach.
func (m *Machine) SetFaultInjector(inj *fault.Injector, pol fault.Policy) {
	if inj == nil {
		panic("sim: SetFaultInjector(nil); use ClearFaultInjector")
	}
	if err := pol.Validate(); err != nil {
		panic(fmt.Sprintf("sim: bad fault policy: %v", err))
	}
	m.mu.Lock()
	m.faults, m.policy = inj, pol
	m.mu.Unlock()
}

// ClearFaultInjector detaches the injector; subsequent launches and
// transfers run fault-free.
func (m *Machine) ClearFaultInjector() {
	m.mu.Lock()
	m.faults = nil
	m.mu.Unlock()
}

// FaultInjector returns the attached injector, or nil.
func (m *Machine) FaultInjector() *fault.Injector {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faults
}

// FaultPolicy returns the policy attached with the injector (the zero
// Policy when none is attached).
func (m *Machine) FaultPolicy() fault.Policy {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.policy
}

// FaultNs returns the virtual time lost to injected faults and their
// recovery since the last reset.
func (m *Machine) FaultNs() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faultNs
}

// Resilience returns the machine-lifetime recovery-action tallies.
func (m *Machine) Resilience() ResilienceStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resStats
}

// ChargeBackoffNs books one retry's backoff delay: the runtime waited ns
// of virtual time before relaunching a failed kernel.
func (m *Machine) ChargeBackoffNs(name string, ns float64) {
	if ns < 0 {
		panic(fmt.Sprintf("sim: negative backoff %g", ns))
	}
	m.mu.Lock()
	m.resStats.Retries++
	m.resStats.BackoffNs += ns
	m.chargeFaultLocked(trace.TrackAccelerator, name+" [backoff]", ns, 0, &m.clockNs)
	if m.tracer != nil {
		reg := m.tracer.Metrics()
		reg.Add(trace.CtrRetries, 1)
		reg.Add(trace.CtrBackoffNs, ns)
	}
	m.mu.Unlock()
}

// NoteFallback records that one launch was rerouted to the host CPU after
// exhausting its retry budget.
func (m *Machine) NoteFallback(name string) {
	m.mu.Lock()
	m.resStats.Fallbacks++
	if m.tracer != nil {
		m.tracer.Metrics().Add(trace.CtrFallbacks, 1)
	}
	m.mu.Unlock()
}

// ElapsedNs returns the virtual clock.
func (m *Machine) ElapsedNs() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clockNs
}

// KernelNs returns time spent in kernels only (the Figure 8a/9a metric).
func (m *Machine) KernelNs() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.kernelNs
}

// TransferNs returns time spent in data movement only.
func (m *Machine) TransferNs() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.transferNs
}

// ResetClock zeroes the virtual clock and split clocks (the PCIe ledger
// is left to the caller, who may want cumulative traffic). Spans already
// emitted stay in the tracer; open run and iteration spans survive a
// reset.
func (m *Machine) ResetClock() {
	m.mu.Lock()
	m.clockNs, m.kernelNs, m.transferNs, m.faultNs = 0, 0, 0, 0
	if m.faults != nil {
		// A device-loss window is anchored to the virtual clock; resetting
		// the clock without closing the window would leak the outage into
		// the next (re-zeroed) run.
		m.faults.ResetWindow()
	}
	m.mu.Unlock()
}
