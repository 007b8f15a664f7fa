// Package hc models Heterogeneous Compute, the Section VII successor
// model: single-source kernels (AMP-style closures), raw pointers without
// buffer wrappers, and — its headline feature — programmer-controlled
// *asynchronous* data transfers that overlap kernel execution
// ("asynchronous kernel launches which help in overlapping kernel
// execution with data-transfers, resulting in further speedup").
//
// Overlap is modeled exactly: async transfer time is banked and drained by
// subsequent kernel time; only the un-hidden remainder is charged to the
// machine clock when the program synchronizes.
package hc

import (
	"fmt"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Runtime binds the HC model to a machine.
type Runtime struct {
	*modelapi.Runtime
	// pendingNs is banked async-transfer time not yet hidden or charged.
	pendingNs float64
}

// New returns an HC runtime for the machine.
func New(machine *sim.Machine) *Runtime {
	return &Runtime{Runtime: modelapi.NewRuntime(machine, modelapi.HC)}
}

// CopyBack synchronously moves bytes to the host.
func (r *Runtime) CopyBack(name string, bytes int64) float64 {
	return r.Machine().TransferFromDevice(name, bytes)
}

// CopyAsync starts a host→device transfer that overlaps subsequent kernel
// launches. The PCIe ledger records it now; its time is charged only to
// the extent later kernels fail to hide it (see Launch/Wait).
func (r *Runtime) CopyAsync(name string, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("hc: negative async copy %d", bytes))
	}
	if r.Machine().Unified() {
		return
	}
	// Record traffic on the ledger without advancing the machine clock:
	// ask the link directly.
	us := r.Machine().Link().ToDevice(bytes)
	r.pendingNs += us * 1e3
}

// Launch prices a kernel of n items whose measured per-item work is per;
// its execution hides banked async-transfer time.
func (r *Runtime) Launch(spec modelapi.KernelSpec, n int, per exec.Counters) timing.Result {
	result := r.Machine().LaunchKernel(sim.OnAccelerator, spec.Name, r.Cost(spec, n, per))
	r.pendingNs -= result.TimeNs
	if r.pendingNs < 0 {
		r.pendingNs = 0
	}
	return result
}

// Wait synchronizes outstanding async transfers, charging whatever kernel
// execution did not hide, and returns that un-hidden time in ns.
func (r *Runtime) Wait() float64 {
	t := r.pendingNs
	r.pendingNs = 0
	if t > 0 {
		r.Machine().AddTransferTime("hc-async-wait", t)
	}
	return t
}
