package workload

// The interpreter: executing a compiled Program through sim.Machine under
// one of the paper's GPU programming models. The model choice sets two
// things — the compiled kernel quality (modelapi.ProfileOn) and the
// data-movement strategy priced on every dependency edge that crosses the
// host/accelerator boundary:
//
//   - OpenCL (ExplicitTransfers): the programmer stages exactly what each
//     kernel reads before it runs and nothing else; written buffers come
//     back once, at the end of the run.
//   - C++ AMP (ViewSyncTransfers): array_view demand sync with the
//     conservative write-back the model's runtime performs — every view a
//     kernel captures is assumed written, so touching a buffer on one
//     device invalidates the other's copy even for reads.
//   - OpenACC (RegionCopyTransfers): the naive no-data-region port — every
//     kernels region conservatively copies its arrays in on entry and out
//     on exit, every iteration. (Modeling `acc data` regions that hoist
//     these copies is future work; this is the paper's out-of-the-box
//     OpenACC behavior.)
//
// On unified-memory machines no copies exist at all (the strategy
// degenerates to NoTransfers), which is exactly the paper's APU argument.
//
// Execution is either serialized — every kernel in deterministic topo
// order on one device, the paper's one-kernel-at-a-time baseline — or
// handed to a sched.DagPlanner that overlaps independent kernels on both
// devices. Staging follows the kernel to whichever device the planner
// picks; the copies book on the destination device's in-order queue ahead
// of the kernel. OpenACC region-exit copies book right after their kernel
// on the same queue; a host-side consumer keys off the kernel's finish
// (the region's asynchronous drain), a small optimism the serial path does
// not share.

import (
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// Options selects how a Program executes.
type Options struct {
	// Model is the programming model compiling the kernels and pricing
	// the staging (one of modelapi.All()).
	Model modelapi.Name
	// Planner, when non-nil, co-schedules the DAG across both devices.
	// Nil runs the serialized baseline: every kernel in topo order on the
	// accelerator (host-pinned kernels excepted).
	Planner *sched.DagPlanner
	// Iterations overrides the spec's outer-loop count when positive.
	Iterations int
}

// Result summarizes one executed workload.
type Result struct {
	ElapsedNs  float64 // virtual time the workload added to the clock
	KernelNs   float64 // kernel-path share of that time
	TransferNs float64 // serial-path staging share (DAG staging lands in ElapsedNs via the makespan)

	Kernels      int // kernel launches across all iterations
	HostKernels  int // of those, run on the host CPU
	AccelKernels int // of those, run on the accelerator
	Rebooked     int // kernels rebooked host-ward by a device-loss window

	Transfers  int     // staging copies the strategy priced
	MovedBytes int64   // bytes those copies moved
	IdleNs     float64 // dependency-wait gaps on the DAG queues
}

// Execute runs the program on the machine from its current virtual clock
// (it does not reset the clock, so an open device-loss window survives
// into the run). Deterministic: equal machine, program and options replay
// the same schedule, spans and counters bit for bit.
func Execute(m *sim.Machine, prog *Program, opt Options) Result {
	accelProf := modelapi.ProfileOn(opt.Model, m.Unified())
	hostProf := modelapi.ProfileFor(modelapi.OpenMP)
	n := len(prog.Spec.Kernels)

	accelCost := make([]timing.KernelCost, n)
	hostCost := make([]timing.KernelCost, n)
	used := make([][]int, n) // reads ∪ writes, declaration order
	for k := 0; k < n; k++ {
		spec := prog.kernelSpec(k)
		items := prog.launchItems(k)
		per := prog.perItem(k)
		accelCost[k] = spec.Cost(accelProf, items, per)
		hostCost[k] = spec.Cost(hostProf, items, per)
		seen := map[int]bool{}
		for _, b := range prog.Reads[k] {
			seen[b] = true
			used[k] = append(used[k], b)
		}
		for _, b := range prog.Writes[k] {
			if !seen[b] {
				used[k] = append(used[k], b)
			}
		}
	}

	iters := opt.Iterations
	if iters <= 0 {
		iters = prog.Spec.iterations()
	}

	ex := &interp{
		m: m, prog: prog, used: used,
		accelCost: accelCost, hostCost: hostCost,
		strategy:  accelProf.Strategy,
		hostValid: make([]bool, len(prog.Spec.Buffers)),
		devValid:  make([]bool, len(prog.Spec.Buffers)),
	}
	if m.Unified() {
		// Shared physical memory: both sides always see the latest copy
		// and no staging exists to price.
		ex.strategy = modelapi.NoTransfers
	}
	for b := range ex.hostValid {
		ex.hostValid[b] = true // inputs materialize on the host
	}

	elapsed0, kernel0, transfer0 := m.ElapsedNs(), m.KernelNs(), m.TransferNs()
	run := m.StartRun(prog.Spec.Name + "/" + string(opt.Model))
	for it := 0; it < iters; it++ {
		iter := m.StartIteration(it)
		if opt.Planner == nil {
			ex.serialIteration()
		} else {
			ex.dagIteration(opt.Planner)
		}
		iter.End()
	}
	ex.finalSync()
	run.End()

	ex.res.Kernels = iters * n
	ex.res.ElapsedNs = m.ElapsedNs() - elapsed0
	ex.res.KernelNs = m.KernelNs() - kernel0
	ex.res.TransferNs = m.TransferNs() - transfer0

	if tr := m.Tracer(); tr != nil {
		reg := tr.Metrics()
		reg.Add(trace.CtrWorkloadRuns, 1)
		reg.Add(trace.CtrWorkloadKernels, float64(ex.res.Kernels))
		reg.Add(trace.CtrWorkloadTransfers, float64(ex.res.Transfers))
		reg.Add(trace.CtrWorkloadMovedBytes, float64(ex.res.MovedBytes))
	}
	return ex.res
}

// interp is one execution's mutable state: buffer residency on the two
// devices, plus the running tallies.
type interp struct {
	m    *sim.Machine
	prog *Program
	used [][]int

	accelCost, hostCost []timing.KernelCost

	strategy  modelapi.TransferStrategy
	hostValid []bool
	devValid  []bool

	res Result
}

// xfer is one staging copy the strategy decided to price.
type xfer struct {
	kind sim.EventKind
	buf  int
}

// pre returns the copies kernel k needs before running on t and marks
// their destinations valid (booking always follows immediately).
func (ex *interp) pre(k int, t sim.Target) []xfer {
	var out []xfer
	h2d := func(b int) {
		if !ex.devValid[b] {
			out = append(out, xfer{sim.EvHostToDevice, b})
			ex.devValid[b] = true
		}
	}
	d2h := func(b int) {
		if !ex.hostValid[b] {
			out = append(out, xfer{sim.EvDeviceToHost, b})
			ex.hostValid[b] = true
		}
	}
	switch ex.strategy {
	case modelapi.ExplicitTransfers:
		// The programmer stages exactly what the kernel reads.
		for _, b := range ex.prog.Reads[k] {
			if t == sim.OnAccelerator {
				h2d(b)
			} else {
				d2h(b)
			}
		}
	case modelapi.ViewSyncTransfers:
		// Every captured view syncs to the executing device — including
		// write-only views, which the runtime cannot prove unread.
		for _, b := range ex.used[k] {
			if t == sim.OnAccelerator {
				h2d(b)
			} else {
				d2h(b)
			}
		}
	case modelapi.RegionCopyTransfers:
		// Region entry copies everything in unconditionally; the exit
		// copy-out (see exit) keeps the host fresh, so host kernels and
		// repeat iterations never find device-resident data.
		if t == sim.OnAccelerator {
			for _, b := range ex.used[k] {
				out = append(out, xfer{sim.EvHostToDevice, b})
			}
		}
	}
	return out
}

// exit returns the copies kernel k books right after running on t
// (OpenACC's region-exit copy-out).
func (ex *interp) exit(k int, t sim.Target) []xfer {
	if ex.strategy != modelapi.RegionCopyTransfers || t != sim.OnAccelerator {
		return nil
	}
	out := make([]xfer, 0, len(ex.used[k]))
	for _, b := range ex.used[k] {
		out = append(out, xfer{sim.EvDeviceToHost, b})
	}
	return out
}

// post advances residency past kernel k's writes on t.
func (ex *interp) post(k int, t sim.Target) {
	switch ex.strategy {
	case modelapi.ExplicitTransfers:
		for _, b := range ex.prog.Writes[k] {
			ex.hostValid[b] = t == sim.OnHost
			ex.devValid[b] = t == sim.OnAccelerator
		}
	case modelapi.ViewSyncTransfers:
		// Conservative write-back: every captured view is assumed
		// written, so the other device's copy is stale.
		for _, b := range ex.used[k] {
			ex.hostValid[b] = t == sim.OnHost
			ex.devValid[b] = t == sim.OnAccelerator
		}
	case modelapi.RegionCopyTransfers:
		// Entry/exit copies bracket every region; the host copy is always
		// fresh by the time anyone looks.
	}
}

// xferName labels one staging copy's span.
func (ex *interp) xferName(k int, x xfer) string {
	return ex.prog.Spec.Kernels[k].Name + ":" + ex.prog.Spec.Buffers[x.buf].Name
}

// serialIteration runs one pass of the DAG in topo order, one kernel at a
// time: the single-device baseline every speedup is measured against.
// Placement constraints are still honored (a host-pinned kernel runs on
// the host), but nothing overlaps.
func (ex *interp) serialIteration() {
	for _, k := range ex.prog.Order {
		t := sim.OnAccelerator
		if ex.prog.Place[k] == sched.PlaceHost {
			t = sim.OnHost
		}
		for _, x := range ex.pre(k, t) {
			ex.bookSerial(k, x)
		}
		cost := ex.accelCost[k]
		if t == sim.OnHost {
			cost = ex.hostCost[k]
			ex.res.HostKernels++
		} else {
			ex.res.AccelKernels++
		}
		ex.m.LaunchKernel(t, ex.prog.Spec.Kernels[k].Name, cost)
		for _, x := range ex.exit(k, t) {
			ex.bookSerial(k, x)
		}
		ex.post(k, t)
	}
}

// bookSerial pays one staging copy on the machine's serial transfer path.
func (ex *interp) bookSerial(k int, x xfer) {
	bytes := ex.prog.Spec.Buffers[x.buf].Bytes
	if x.kind == sim.EvHostToDevice {
		ex.m.TransferToDevice(ex.xferName(k, x), bytes)
	} else {
		ex.m.TransferFromDevice(ex.xferName(k, x), bytes)
	}
	ex.res.Transfers++
	ex.res.MovedBytes += bytes
}

// dagIteration hands one pass of the DAG to the planner. The planning
// loop is sequential and books kernels in a valid topological order, so
// the residency state machine advances exactly as it would under the
// serial path — only the virtual-time bookings overlap.
func (ex *interp) dagIteration(planner *sched.DagPlanner) {
	n := len(ex.prog.Spec.Kernels)
	kernels := make([]sched.DagKernel, n)
	for k := 0; k < n; k++ {
		kernels[k] = sched.DagKernel{
			Name:  ex.prog.Spec.Kernels[k].Name,
			Accel: ex.accelCost[k],
			Host:  ex.hostCost[k],
			Deps:  ex.prog.Deps[k],
			Place: ex.prog.Place[k],
		}
	}
	dr := planner.Run(ex.m, sched.DagLaunch{
		Name:    ex.prog.Spec.Name,
		Kernels: kernels,
		Stage: func(q *sim.QueuePair, k int, t sim.Target, readyNs float64) float64 {
			for _, x := range ex.pre(k, t) {
				readyNs = ex.bookQueued(q, t, k, x, readyNs)
			}
			return readyNs
		},
		OnKernel: func(q *sim.QueuePair, k int, t sim.Target, rebooked bool) {
			// Region-exit copies land at the device queue's tail, right
			// behind the kernel that just booked there.
			for _, x := range ex.exit(k, t) {
				ex.bookQueued(q, t, k, x, 0)
			}
			ex.post(k, t)
		},
	})
	ex.res.HostKernels += dr.Stats.HostKernels
	ex.res.AccelKernels += dr.Stats.AccelKernels
	ex.res.Rebooked += dr.Stats.Rebooked
	ex.res.IdleNs += dr.Stats.IdleNs
}

// bookQueued pays one staging copy on a DAG device queue and returns its
// completion time.
func (ex *interp) bookQueued(q *sim.QueuePair, t sim.Target, k int, x xfer, readyNs float64) float64 {
	bytes := ex.prog.Spec.Buffers[x.buf].Bytes
	done := q.RunTransfer(t, x.kind, ex.xferName(k, x), bytes, readyNs)
	ex.res.Transfers++
	ex.res.MovedBytes += bytes
	return done
}

// finalSync brings the result buffers home at the end of the run: the
// OpenCL program's final clEnqueueReadBuffer calls, or the C++ AMP
// synchronize() on each view the host examines. Only terminal outputs
// (Program.Output) come back — intermediates stay wherever they died.
// OpenACC regions already copied out at every exit, and unified machines
// never went stale.
func (ex *interp) finalSync() {
	for b := range ex.hostValid {
		if ex.hostValid[b] || !ex.prog.Output[b] {
			continue
		}
		ex.m.TransferFromDevice("sync:"+ex.prog.Spec.Buffers[b].Name, ex.prog.Spec.Buffers[b].Bytes)
		ex.res.Transfers++
		ex.res.MovedBytes += ex.prog.Spec.Buffers[b].Bytes
		ex.hostValid[b] = true
	}
}

// String renders the options for labels ("OpenCL/dynamic", "OpenACC/serial").
func (o Options) String() string {
	pol := "serial"
	if o.Planner != nil {
		pol = o.Planner.Policy().String()
	}
	return string(o.Model) + "/" + pol
}
