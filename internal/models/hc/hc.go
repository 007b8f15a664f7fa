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
	// uploaded lists the buffers CopyAsync moved to the device: the set a
	// failed launch restages.
	uploaded []upload
}

// upload is one buffer CopyAsync moved to the device.
type upload struct {
	name  string
	bytes int64
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
	r.uploaded = append(r.uploaded, upload{name, bytes})
}

// Launch prices a kernel of n items whose measured per-item work is per;
// its execution hides banked async-transfer time. The launch goes through
// the shared driver (modelapi.Runtime.LaunchResilient) and recovers the
// explicit model's way, since HC's programmer knows what was uploaded: a
// retry restages the buffers CopyAsync moved, and the host fallback syncs
// them back and round-trips them.
func (r *Runtime) Launch(spec modelapi.KernelSpec, n int, per exec.Counters) timing.Result {
	m := r.Machine()
	result := r.LaunchResilient(&modelapi.Launch{
		Spec: spec, Items: n, Per: per, Cost: r.Cost(spec, n, per),
	}, modelapi.Recovery{
		Restage:   func() { r.moveUploaded(m.TransferToDevice, "(restage)") },
		Sync:      func() { r.moveUploaded(m.TransferFromDevice, "(fallback-sync)") },
		RoundTrip: true,
	})
	r.pendingNs -= result.TimeNs
	if r.pendingNs < 0 {
		r.pendingNs = 0
	}
	return result
}

// moveUploaded copies every uploaded buffer one way, synchronously.
func (r *Runtime) moveUploaded(move func(name string, bytes int64) float64, suffix string) {
	for _, u := range r.uploaded {
		move(u.name+suffix, u.bytes)
	}
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
