package sim

// Overlapped execution: the pair of per-device in-order virtual command
// queues that every overlapping plan books onto. Two planners use it, and
// both live in internal/sched (which imports sim, keeping the dependency
// one-way, like fault.Injector): a CoexecPlanner splits one launch into
// chunks across the two devices, and the DAG planner places the distinct
// kernels of a multi-kernel workload, overlapping independent ones or,
// as the serial baseline, running one at a time.
//
// The two kinds of booking differ in two ways. A chunk is one piece of a
// launch, so after a queue's first booking its launch overhead hides
// under its predecessor; a DAG kernel is a distinct launch and always
// pays its own. A DAG kernel may also not start before its dependencies
// finish: it carries a ready time, and a queue may go idle until then
// (the gap is tallied so planners can report dependency stalls).

import (
	"fmt"

	"hetbench/internal/sim/timing"
)

// QueuePair is the pair of per-device in-order virtual command queues
// backing one overlapped plan: a co-executed launch or a DAG workload.
// Both queues open at the machine clock; Merge advances the clock by the
// longer queue (the plan's makespan), so the two devices overlap in
// virtual time exactly as the emitted spans show. A queue pair is used by
// one goroutine (the planning loop); the machine mutex guards the shared
// ledger.
type QueuePair struct {
	m       *Machine
	startNs float64
	busy    [2]float64 // indexed by Target
	idle    [2]float64 // ready-time waits, indexed by Target
	count   [2]int     // bookings, indexed by Target
}

// BeginQueues opens a queue pair at the current virtual clock. It stays
// small enough to inline, so a caller that keeps the pair local (the
// co-execution scheduler) holds it on its stack and a split launch
// allocates nothing.
func (m *Machine) BeginQueues() *QueuePair {
	return &QueuePair{m: m, startNs: m.ElapsedNs()}
}

// StartNs returns the virtual time both queues opened at.
func (q *QueuePair) StartNs() float64 { return q.startNs }

// AvailNs returns when the target's queue next frees up, relative to the
// queue-pair start.
func (q *QueuePair) AvailNs(t Target) float64 { return q.busy[t] }

// IdleNs returns the time the target's queue sat idle waiting for ready
// times: the dependency stalls of a DAG plan.
func (q *QueuePair) IdleNs(t Target) float64 { return q.idle[t] }

// result times one booking on the target. A chunk after the queue's first
// booking was enqueued while its predecessor ran, so its fixed launch/fork
// overhead hides under it.
func (q *QueuePair) result(t Target, cost timing.KernelCost, chunk bool) timing.Result {
	model := q.m.accelModel
	if t == OnHost {
		model = q.m.hostModel
	}
	r := model.Kernel(cost)
	if chunk && q.count[t] > 0 {
		r.TimeNs -= r.LaunchNs
		r.LaunchNs = 0
	}
	return r
}

// ChunkTimeNs previews what a chunk would cost on the target right now
// without booking it — the planner's look-ahead for earliest-finish
// device selection.
func (q *QueuePair) ChunkTimeNs(t Target, cost timing.KernelCost) float64 {
	return q.result(t, cost, true).TimeNs
}

// RunChunk books one chunk of a co-executed launch at the tail of the
// target's queue and returns its timing. When traced, the chunk's span is
// named name#acc<n> or name#cpu<n>, n counting the queue's bookings.
func (q *QueuePair) RunChunk(t Target, name string, cost timing.KernelCost) timing.Result {
	r, _ := q.book(t, name, cost, 0, true)
	return r
}

// RunKernel books one distinct kernel at the tail of the target's queue,
// no earlier than readyNs (relative to StartNs — the latest finish of the
// kernel's dependencies). It returns the kernel's timing and its
// completion time relative to StartNs.
func (q *QueuePair) RunKernel(t Target, name string, cost timing.KernelCost, readyNs float64) (timing.Result, float64) {
	return q.book(t, name, cost, readyNs, false)
}

// book is the one booking core behind RunChunk and RunKernel. The machine
// clock does not advance until Merge; the span (when traced) is emitted
// at the booking's queue position, so work on the two devices overlaps on
// the timeline.
func (q *QueuePair) book(t Target, name string, cost timing.KernelCost, readyNs float64, chunk bool) (timing.Result, float64) {
	r := q.result(t, cost, chunk)
	m := q.m
	m.mu.Lock()
	start := q.waitLocked(t, readyNs)
	q.busy[t] = start + r.TimeNs
	q.count[t]++
	if m.tracer != nil {
		if chunk {
			side := "acc"
			if t == OnHost {
				side = "cpu"
			}
			name = fmt.Sprintf("%s#%s%d", name, side, q.count[t]-1)
		}
		m.emitKernelLocked(t, name, cost, r, q.startNs+start)
	}
	m.mu.Unlock()
	return r, start + r.TimeNs
}

// waitLocked returns when the target's queue can start a booking ready at
// readyNs, tallying any idle gap (mu held).
func (q *QueuePair) waitLocked(t Target, readyNs float64) float64 {
	start := q.busy[t]
	if readyNs > start {
		q.idle[t] += readyNs - start
		start = readyNs
	}
	return start
}

// RunTransfer books one staging copy at the tail of the target's queue, no
// earlier than readyNs: the DMA for a kernel's inputs serializes ahead of
// it on its device's in-order command queue. Returns the transfer's
// completion time relative to StartNs. On unified machines the copy is
// free, like the machine's transfer helpers; across PCIe it costs link
// time and is recorded in the link's traffic ledger. Under a fault
// injector the copy pays what a serial transfer pays, booked on this
// queue: it waits out a device-loss window and resends each CRC-failed
// pass, and the [device-wait] and [retransmit] fault spans land at their
// queue positions.
func (q *QueuePair) RunTransfer(t Target, kind EventKind, name string, bytes int64, readyNs float64) float64 {
	m := q.m
	ns := m.linkNs(kind, bytes)
	m.mu.Lock()
	start := q.waitLocked(t, readyNs)
	m.linkFaultsLocked(name, ns, q.startNs, &start)
	q.busy[t] = start + ns
	if m.tracer != nil {
		m.emitTransferLocked(kind, name, bytes, ns, q.startNs+start)
	}
	m.mu.Unlock()
	return start + ns
}

// Merge closes the queue pair: the machine clock and kernel split clock
// advance by the longer device queue — the plan's makespan. Returns the
// makespan in ns. Counters describing the plan are the planner's to
// publish (see internal/sched).
func (q *QueuePair) Merge() float64 {
	wall := q.busy[OnHost]
	if q.busy[OnAccelerator] > wall {
		wall = q.busy[OnAccelerator]
	}
	m := q.m
	m.mu.Lock()
	m.clockNs += wall
	m.kernelNs += wall
	m.mu.Unlock()
	return wall
}
