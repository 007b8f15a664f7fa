package sched

// DAG-aware planning: placing the kernels of a multi-kernel workload on
// the two devices of a machine so that independent kernels overlap, while
// dependent kernels wait for their producers. This extends the package's
// single-kernel iteration-space splitting to whole workloads (ROADMAP
// item 2): where LaunchSplit carves one launch into chunks, a DagPlanner
// schedules many launches over the same pair of per-device virtual command
// queues (sim.QueuePair), booking distinct kernels with ready times where
// LaunchSplit books pipelined chunks.
//
// The three policies reuse the package vocabulary at kernel granularity:
//
//   - Static places each kernel on the device with the larger Shares-
//     normalized roofline rate for that exact kernel, ignoring queue
//     state — the cheapest rule, and the one a placement file could
//     precompute.
//   - Dynamic picks, for each ready kernel in spec order, the device that
//     finishes it earliest given both queues' booked work — list
//     scheduling with earliest-finish-time placement.
//   - HGuided adds a priority: ready kernels are drained in descending
//     bottom-level order (the longest dependent chain below each kernel,
//     a HEFT-style rank), so critical-path kernels book first and the
//     short side fills around them; placement is earliest-finish-time.
//
// SerialDag is the baseline every speedup is measured against: kernels
// book one at a time in lowest-index pick order (the workload's Kahn order),
// each on the accelerator unless pinned to the host, and none starts
// before everything already booked on either queue has finished.
//
// All of them are deterministic: ties break toward the lower kernel index,
// and no randomness is drawn. The planner is fault-aware the same way the
// chunk scheduler is: a kernel about to be issued to an accelerator that
// sits inside a device-loss window is rebooked on the host (or, when the
// spec pins it to the accelerator, waits the window out).

import (
	"fmt"

	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// Placement constrains which device may run a DAG kernel (the workload
// spec's HeteroBench-style per-kernel device field).
type Placement int

// Placements.
const (
	// PlaceAny lets the planner choose the device.
	PlaceAny Placement = iota
	// PlaceHost pins the kernel to the host CPU.
	PlaceHost
	// PlaceAccel pins the kernel to the accelerator.
	PlaceAccel
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlaceAny:
		return "any"
	case PlaceHost:
		return "host"
	case PlaceAccel:
		return "accel"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// DagKernel is one node of a DAG launch: the same kernel costed for both
// devices, the indices of the kernels that must finish before it starts,
// and any placement constraint.
type DagKernel struct {
	Name  string
	Accel timing.KernelCost
	Host  timing.KernelCost
	Deps  []int
	Place Placement
}

// DagLaunch is one multi-kernel workload handed to a DagPlanner. Kernels
// reference each other by slice index; the graph must be acyclic (the
// workload compiler guarantees it — a cycle is a programming error here
// and panics).
type DagLaunch struct {
	Name    string
	Kernels []DagKernel

	// Stage, when non-nil, books the staging transfers kernel k needs
	// before it can start on the chosen device, and returns the kernel's
	// ready time after them (relative to q.StartNs()). The interpreter
	// uses it to price each model's data-movement strategy per edge; the
	// planner calls it exactly once per kernel, in booking order, after
	// the device decision and before the kernel itself is booked.
	Stage func(q *sim.QueuePair, k int, t sim.Target, readyNs float64) float64

	// OnKernel, when non-nil, observes every booking in booking order:
	// the queue pair, the kernel index, the device it booked on, and
	// whether a device-loss window rebooked it host-ward. It runs right
	// after the kernel books, so an observer may append trailing work to
	// the same device queue (OpenACC-style region-exit copies). Observers
	// must not block; they run inside the planning loop.
	OnKernel func(q *sim.QueuePair, k int, t sim.Target, rebooked bool)
}

// DagStats tallies the DAG scheduling decisions of one launch.
type DagStats struct {
	Kernels      int     // kernels booked on either device
	Edges        int     // dependency edges honored
	HostKernels  int     // kernels run on the host CPU
	AccelKernels int     // kernels run on the accelerator
	Rebooked     int     // kernels rebooked host-ward by a device-loss window
	HostNs       float64 // host queue busy time
	AccelNs      float64 // accelerator queue busy time
	IdleNs       float64 // dependency-wait gaps on both queues
}

// DagResult describes one planned launch: its makespan and the per-kernel
// schedule (device and completion time, in kernel-index order).
type DagResult struct {
	MakespanNs float64
	Target     []sim.Target
	FinishNs   []float64
	Stats      DagStats
}

// DagPlanner schedules DAG launches on a machine's queue pair under one
// policy, or serially. It holds no other state, so one planner may serve
// many launches (and machines) at once.
type DagPlanner struct {
	policy Policy
	serial bool
}

// NewDag builds a DAG planner for the policy.
func NewDag(p Policy) *DagPlanner { return &DagPlanner{policy: p} }

// SerialDag builds the serial schedule: one kernel at a time in the
// planner's pick order, on the accelerator unless pinned to the host. It
// keeps the planner's device-loss handling and publishes no sched.dag.*
// counters, since it plans nothing.
func SerialDag() *DagPlanner { return &DagPlanner{serial: true} }

// String names the schedule: "serial" or the policy's name.
func (p *DagPlanner) String() string {
	if p.serial {
		return "serial"
	}
	return p.policy.String()
}

// Run schedules one DAG launch on the machine's queue pair and returns
// the schedule. The machine clock advances by the makespan.
func (p *DagPlanner) Run(m *sim.Machine, l DagLaunch) DagResult {
	n := len(l.Kernels)
	if n == 0 {
		panic(fmt.Sprintf("sched: DAG launch %q with no kernels", l.Name))
	}
	// Dependency bookkeeping: indegrees drive the ready set, successor
	// lists propagate completions.
	indeg := make([]int, n)
	succ := make([][]int, n)
	edges := 0
	for k, kern := range l.Kernels {
		for _, d := range kern.Deps {
			if d < 0 || d >= n || d == k {
				panic(fmt.Sprintf("sched: DAG launch %q kernel %d has invalid dep %d", l.Name, k, d))
			}
			indeg[k]++
			succ[d] = append(succ[d], k)
			edges++
		}
	}

	// Per-kernel roofline previews on both devices: the rates behind the
	// static Shares placement and the EFT look-ahead.
	hostNs := make([]float64, n)
	accelNs := make([]float64, n)
	for k, kern := range l.Kernels {
		hostNs[k] = m.HostModel().Kernel(kern.Host).TimeNs
		accelNs[k] = m.AcceleratorModel().Kernel(kern.Accel).TimeNs
	}

	// HGuided priority: bottom level — the kernel's own best-device time
	// plus the longest bottom level among its successors. A memoized
	// depth-first recursion over succ computes each kernel's level once;
	// meeting a kernel whose level is still in progress means the
	// dependencies form a cycle, which panics.
	var prio []float64
	if p.policy == HGuided {
		prio = make([]float64, n)
		state := make([]int, n) // 0 unvisited, 1 in progress, 2 done
		var bottom func(k int) float64
		bottom = func(k int) float64 {
			switch state[k] {
			case 2:
				return prio[k]
			case 1:
				panic(fmt.Sprintf("sched: DAG launch %q has a dependency cycle through kernel %d", l.Name, k))
			}
			state[k] = 1
			best := accelNs[k]
			if hostNs[k] < best {
				best = hostNs[k]
			}
			longest := 0.0
			for _, s := range succ[k] {
				if b := bottom(s); b > longest {
					longest = b
				}
			}
			prio[k] = best + longest
			state[k] = 2
			return prio[k]
		}
		for k := 0; k < n; k++ {
			bottom(k)
		}
	}

	q := m.BeginQueues()
	inj := m.FaultInjector()
	finish := make([]float64, n)
	target := make([]sim.Target, n)
	booked := make([]bool, n)
	var st DagStats
	st.Kernels, st.Edges = n, edges

	for done := 0; done < n; done++ {
		// Pick the next ready kernel deterministically: lowest index, or
		// under HGuided the highest bottom-level (ties toward the lower
		// index). A pass with no ready kernel means a cycle.
		pick := -1
		for k := 0; k < n; k++ {
			if booked[k] || indeg[k] != 0 {
				continue
			}
			if pick < 0 || (prio != nil && prio[k] > prio[pick]) {
				pick = k
			}
		}
		if pick < 0 {
			panic(fmt.Sprintf("sched: DAG launch %q has a dependency cycle (%d of %d kernels schedulable)", l.Name, done, n))
		}
		kern := l.Kernels[pick]
		ready := 0.0
		for _, d := range kern.Deps {
			if finish[d] > ready {
				ready = finish[d]
			}
		}
		if p.serial {
			// Nothing overlaps: wait for both queues to drain.
			ready = max(ready, q.AvailNs(sim.OnHost), q.AvailNs(sim.OnAccelerator))
		}

		t := p.placeDag(q, kern, ready, hostNs[pick], accelNs[pick])
		rebooked := false
		if t == sim.OnAccelerator && inj != nil {
			// The accelerator is inside a loss window at the instant this
			// kernel would be issued: an unconstrained kernel rebooks on
			// the host; a pinned one waits the window out.
			start := q.AvailNs(sim.OnAccelerator)
			if ready > start {
				start = ready
			}
			if until := inj.LostUntilNs(); until > q.StartNs()+start {
				if kern.Place == PlaceAccel {
					ready = until - q.StartNs()
				} else {
					t, rebooked = sim.OnHost, true
					st.Rebooked++
				}
			}
		}
		if l.Stage != nil {
			ready = l.Stage(q, pick, t, ready)
		}
		cost := kern.Accel
		if t == sim.OnHost {
			cost = kern.Host
		}
		_, fin := q.RunKernel(t, kern.Name, cost, ready)
		finish[pick], target[pick], booked[pick] = fin, t, true
		if t == sim.OnHost {
			st.HostKernels++
		} else {
			st.AccelKernels++
		}
		if l.OnKernel != nil {
			l.OnKernel(q, pick, t, rebooked)
		}
		for _, s := range succ[pick] {
			indeg[s]--
		}
	}

	st.HostNs = q.AvailNs(sim.OnHost)
	st.AccelNs = q.AvailNs(sim.OnAccelerator)
	st.IdleNs = q.IdleNs(sim.OnHost) + q.IdleNs(sim.OnAccelerator)
	wall := q.Merge()

	if tr := m.Tracer(); tr != nil && !p.serial {
		reg := tr.Metrics()
		reg.Add(trace.CtrDagLaunches, 1)
		reg.Add(trace.CtrDagKernels, float64(st.Kernels))
		reg.Add(trace.CtrDagEdges, float64(st.Edges))
		reg.Add(trace.CtrDagHostKernels, float64(st.HostKernels))
		reg.Add(trace.CtrDagAccelKernels, float64(st.AccelKernels))
		reg.Add(trace.CtrDagRebooked, float64(st.Rebooked))
		reg.Add(trace.CtrDagIdleNs, st.IdleNs)
	}

	return DagResult{MakespanNs: wall, Target: target, FinishNs: finish, Stats: st}
}

// placeDag chooses the device for one ready kernel. Placement constraints
// win and the serial schedule takes the accelerator; otherwise Static
// uses the Shares-normalized roofline rates alone, and the adaptive
// policies use earliest finish time over the queue state (staging cost
// is not previewed — it is strategy-dependent and booked by the
// interpreter after the decision).
func (p *DagPlanner) placeDag(q *sim.QueuePair, kern DagKernel, ready, hostNs, accelNs float64) sim.Target {
	switch {
	case kern.Place == PlaceHost:
		return sim.OnHost
	case kern.Place == PlaceAccel, p.serial:
		return sim.OnAccelerator
	}
	switch p.policy {
	case Static:
		items := float64(kern.Accel.Items)
		shares := Shares([]float64{items / hostNs, items / accelNs})
		if shares[0] > shares[1] {
			return sim.OnHost
		}
		return sim.OnAccelerator
	case Dynamic, HGuided:
		hStart, aStart := q.AvailNs(sim.OnHost), q.AvailNs(sim.OnAccelerator)
		if ready > hStart {
			hStart = ready
		}
		if ready > aStart {
			aStart = ready
		}
		if hStart+hostNs < aStart+accelNs {
			return sim.OnHost
		}
		return sim.OnAccelerator
	default:
		panic(fmt.Sprintf("sched: unknown policy %v", p.policy))
	}
}
