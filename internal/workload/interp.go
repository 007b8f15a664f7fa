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
// Every run is a sched.DagPlanner schedule: the serial baseline (one
// kernel at a time in topo order, sched.SerialDag) or a policy that
// overlaps independent kernels on both devices. Staging follows the
// kernel to whichever device the planner picks; the copies book on the
// destination device's in-order queue ahead of the kernel. OpenACC
// region-exit copies book right after their kernel on the same queue.

import (
	"slices"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/trace"
)

// Options selects how a Program executes.
type Options struct {
	// Model is the programming model compiling the kernels and pricing
	// the staging (one of modelapi.All()).
	Model modelapi.Name
	// Planner schedules the DAG across both devices. Nil selects the
	// serialized baseline (sched.SerialDag): every kernel in topo order
	// on the accelerator, host-pinned kernels excepted.
	Planner *sched.DagPlanner
	// Iterations overrides the spec's outer-loop count when positive.
	Iterations int
}

// Result summarizes one executed workload.
type Result struct {
	ElapsedNs float64 // virtual time the workload added to the clock

	Kernels      int // kernel launches across all iterations
	HostKernels  int // of those, run on the host CPU
	AccelKernels int // of those, run on the accelerator
	Rebooked     int // kernels rebooked host-ward by a device-loss window

	Transfers  int   // staging copies the strategy priced
	MovedBytes int64 // bytes those copies moved
}

// Execute runs the program on the machine from its current virtual clock
// (it does not reset the clock, so an open device-loss window survives
// into the run). Deterministic: equal machine, program and options replay
// the same schedule, spans and counters bit for bit.
func Execute(m *sim.Machine, prog *Program, opt Options) Result {
	n := len(prog.Spec.Kernels)
	ex := &interp{m: m, prog: prog, stageIn: make([][]int, n), leave: make([][]int, n)}
	// The one residency rule, per strategy: the buffers staged in to the
	// executing side before a kernel runs, and the buffers its run leaves
	// valid on that side only. Shared physical memory stages nothing.
	if !m.Unified() {
		switch strategy := modelapi.ProfileFor(opt.Model).Strategy; strategy {
		case modelapi.ExplicitTransfers:
			ex.stageIn, ex.leave = prog.Reads, prog.Writes
		case modelapi.ViewSyncTransfers, modelapi.RegionCopyTransfers:
			// Every captured view or region array syncs in — write-only
			// ones too, which the runtime cannot prove unread — and is
			// assumed written. An OpenACC region also copies it back and
			// releases the device copy on exit.
			ex.stageIn = prog.captured()
			ex.leave = ex.stageIn
			ex.regionExit = strategy == modelapi.RegionCopyTransfers
		}
	}
	for t := range ex.valid {
		ex.valid[t] = make([]bool, len(prog.Spec.Buffers))
	}
	for b := range ex.valid[sim.OnHost] {
		ex.valid[sim.OnHost][b] = true // inputs materialize on the host
	}

	iters := opt.Iterations
	if iters <= 0 {
		iters = prog.Spec.iterations()
	}
	planner := opt.Planner
	if planner == nil {
		planner = sched.SerialDag()
	}
	launch := sched.DagLaunch{
		Name:     prog.Spec.Name,
		Kernels:  prog.dagKernels(m, opt.Model),
		Stage:    ex.stage,
		OnKernel: ex.ran,
	}

	elapsed0 := m.ElapsedNs()
	m.InRun(prog.Spec.Name+"/"+string(opt.Model), func() {
		for it := 0; it < iters; it++ {
			m.InIteration(it, func() {
				st := planner.Run(m, launch).Stats
				ex.res.HostKernels += st.HostKernels
				ex.res.AccelKernels += st.AccelKernels
				ex.res.Rebooked += st.Rebooked
			})
		}
		ex.finalSync()
	})

	ex.res.Kernels = iters * n
	ex.res.ElapsedNs = m.ElapsedNs() - elapsed0

	if tr := m.Tracer(); tr != nil {
		reg := tr.Metrics()
		reg.Add(trace.CtrWorkloadRuns, 1)
		reg.Add(trace.CtrWorkloadKernels, float64(ex.res.Kernels))
		reg.Add(trace.CtrWorkloadTransfers, float64(ex.res.Transfers))
		reg.Add(trace.CtrWorkloadMovedBytes, float64(ex.res.MovedBytes))
	}
	return ex.res
}

// dagKernels costs every kernel on both devices of m, the accelerator
// side compiled by model: the planner's input.
func (p *Program) dagKernels(m *sim.Machine, model modelapi.Name) []sched.DagKernel {
	accelProf := modelapi.ProfileOn(model, m.Unified())
	hostProf := modelapi.ProfileFor(modelapi.OpenMP)
	kernels := make([]sched.DagKernel, len(p.Spec.Kernels))
	for k := range kernels {
		spec := p.kernelSpec(k)
		items := p.launchItems(k)
		per := p.perItem(k)
		kernels[k] = sched.DagKernel{
			Name:  spec.Name,
			Accel: spec.Cost(accelProf, items, per),
			Host:  spec.Cost(hostProf, items, per),
			Deps:  p.Deps[k],
			Place: p.Place[k],
		}
	}
	return kernels
}

// captured returns, per kernel, the buffers it reads or writes (reads
// first, in declaration order): what a view or region captures.
func (p *Program) captured() [][]int {
	used := make([][]int, len(p.Spec.Kernels))
	for k := range used {
		used[k] = append(used[k], p.Reads[k]...)
		for _, b := range p.Writes[k] {
			if !slices.Contains(p.Reads[k], b) {
				used[k] = append(used[k], b)
			}
		}
	}
	return used
}

// interp is one execution's mutable state: buffer residency on the two
// devices, the strategy's per-kernel sets, and the running tallies. The
// planning loop is sequential and books kernels in a valid topological
// order, so residency advances in booking order whatever the schedule.
type interp struct {
	m    *sim.Machine
	prog *Program

	// stageIn[k] is staged to kernel k's device before it runs; leave[k]
	// is valid only there after it runs. regionExit (OpenACC) copies
	// leave[k] back and releases the device copies when an accelerator
	// kernel's region ends.
	stageIn, leave [][]int
	regionExit     bool
	// valid[t][b] records whether target t holds buffer b's latest copy.
	valid [2][]bool

	res Result
}

// stage books the copies kernel k needs before it runs on t, no earlier
// than readyNs, and returns its ready time after them (the planner's
// DagLaunch.Stage hook).
func (ex *interp) stage(q *sim.QueuePair, k int, t sim.Target, readyNs float64) float64 {
	kind := sim.EvHostToDevice
	if t == sim.OnHost {
		kind = sim.EvDeviceToHost
	}
	for _, b := range ex.stageIn[k] {
		if !ex.valid[t][b] {
			readyNs = ex.copy(q, t, kind, k, b, readyNs)
			ex.valid[t][b] = true
		}
	}
	return readyNs
}

// ran advances residency past kernel k on t (the planner's
// DagLaunch.OnKernel hook). An OpenACC region's exit copies land at the
// accelerator queue's tail, right behind the kernel that just booked.
func (ex *interp) ran(q *sim.QueuePair, k int, t sim.Target, _ bool) {
	for _, b := range ex.leave[k] {
		ex.valid[t][b], ex.valid[1-t][b] = true, false
	}
	if !ex.regionExit || t != sim.OnAccelerator {
		return
	}
	for _, b := range ex.leave[k] {
		ex.copy(q, t, sim.EvDeviceToHost, k, b, 0)
		ex.valid[sim.OnHost][b], ex.valid[sim.OnAccelerator][b] = true, false
	}
}

// copy books one staging copy of buffer b for kernel k on t's queue and
// returns its completion time.
func (ex *interp) copy(q *sim.QueuePair, t sim.Target, kind sim.EventKind, k, b int, readyNs float64) float64 {
	buf := ex.prog.Spec.Buffers[b]
	done := q.RunTransfer(t, kind, ex.prog.Spec.Kernels[k].Name+":"+buf.Name, buf.Bytes, readyNs)
	ex.res.Transfers++
	ex.res.MovedBytes += buf.Bytes
	return done
}

// finalSync brings the result buffers home at the end of the run: the
// OpenCL program's final clEnqueueReadBuffer calls, or the C++ AMP
// synchronize() on each view the host examines. Only terminal outputs
// (Program.Output) come back — intermediates stay wherever they died.
// OpenACC regions already copied out at every exit, and unified machines
// never went stale.
func (ex *interp) finalSync() {
	for b, home := range ex.valid[sim.OnHost] {
		if home || !ex.prog.Output[b] {
			continue
		}
		buf := ex.prog.Spec.Buffers[b]
		ex.m.TransferFromDevice("sync:"+buf.Name, buf.Bytes)
		ex.res.Transfers++
		ex.res.MovedBytes += buf.Bytes
		ex.valid[sim.OnHost][b] = true
	}
}

// String renders the options for labels ("OpenCL/dynamic", "OpenACC/serial").
func (o Options) String() string {
	pol := "serial"
	if o.Planner != nil {
		pol = o.Planner.String()
	}
	return string(o.Model) + "/" + pol
}
