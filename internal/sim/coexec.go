package sim

// Co-execution: splitting one kernel's iteration space across the host CPU
// and the accelerator. The machine side is deliberately thin — the
// planner books chunks on a QueuePair (queue.go), which owns the merge
// into the clock/ledger — while the partitioning policy lives behind
// CoexecPlanner (implemented by internal/sched, which imports sim; the
// interface keeps the dependency one-way, like fault.Injector).

import (
	"fmt"

	"hetbench/internal/sim/timing"
)

// CoexecLaunch is one kernel launch eligible for CPU+accelerator
// co-execution: the same iteration space costed twice, once as the device
// compiler emits it and once as the host (OpenMP) compiler emits it. The
// two costs must cover the same Items; planners carve chunks by copying a
// cost and shrinking Items (every other KernelCost field is a per-item
// average, so a chunk's cost is exact).
type CoexecLaunch struct {
	Name  string
	Accel timing.KernelCost
	Host  timing.KernelCost
}

// CoexecPlanner partitions a launch across the two devices of a machine.
// Implementations call BeginQueues, run chunks on the queue pair, and
// return the merged result.
type CoexecPlanner interface {
	LaunchSplit(m *Machine, l CoexecLaunch) timing.Result
}

// SetCoexec attaches a co-execution planner; eligible launches routed via
// LaunchKernelSplit are split across host and accelerator. Panics on nil.
func (m *Machine) SetCoexec(p CoexecPlanner) {
	if p == nil {
		panic("sim: SetCoexec(nil)")
	}
	m.mu.Lock()
	m.coexec = p
	m.mu.Unlock()
}

// LaunchKernelSplit routes one accelerator launch through the attached
// co-execution planner; host costs the launch's host side, and is called
// only when a planner is attached. ok is false when none is — the caller
// falls through to its normal single-device path — so, like the fault
// injector, a machine without co-execution pays only a nil check.
func (m *Machine) LaunchKernelSplit(name string, accel timing.KernelCost, host func() timing.KernelCost) (timing.Result, bool) {
	if m.coexec == nil {
		return timing.Result{}, false
	}
	h := host()
	if accel.Items != h.Items {
		panic(fmt.Sprintf("sim: split launch %q costs disagree on items (%d vs %d)", name, accel.Items, h.Items))
	}
	return m.coexec.LaunchSplit(m, CoexecLaunch{Name: name, Accel: accel, Host: h}), true
}
