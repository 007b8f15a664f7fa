// Package cppamp is the C++ AMP-like runtime: extents, parallel_for_each
// with closure capture, and array_view data management. Tiling with
// tile_static storage is a property of the kernel body (CoMD's tiled force
// kernel tallies the LDS traffic its tiles cause); the launch prices
// those counters.
//
// The data-management semantics are the crux of the paper's discrete-GPU
// findings: an ArrayView copies itself to the device when a kernel captures
// it while the host copy is fresh, and — because the CLAMP-era compiler
// performs no read-only analysis — it must be assumed written, so host
// access or Synchronize copies it back. The programmer cannot suppress
// either copy (no discard_data in CLAMP v0.6), which is exactly the
// "compilers do not optimally manage the data-transfers" behaviour the
// paper measures. On the APU every copy is free (unified memory).
package cppamp

import (
	"fmt"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Runtime binds the AMP model to a machine (an accelerator_view).
type Runtime struct {
	*modelapi.Runtime
}

// New returns an AMP runtime for the machine.
func New(machine *sim.Machine) *Runtime {
	return &Runtime{modelapi.NewRuntime(machine, modelapi.CppAMP)}
}

// Extent is a 1-D iteration domain (extent<1> in AMP).
type Extent struct{ Size int }

// NewExtent builds an extent of n threads.
func NewExtent(n int) Extent {
	if n <= 0 {
		panic(fmt.Sprintf("cppamp: invalid extent %d", n))
	}
	return Extent{Size: n}
}

// ArrayView wraps host data for device use (array_view<T,1>). The tracked
// state drives transfer accounting on discrete machines.
type ArrayView struct {
	rt    *Runtime
	name  string
	bytes int64
	// where the fresh copy lives
	onDevice bool
}

// NewArrayView wraps a host allocation of the given size.
func (r *Runtime) NewArrayView(name string, bytes int64) *ArrayView {
	if bytes < 0 {
		panic(fmt.Sprintf("cppamp: negative view size %d", bytes))
	}
	return &ArrayView{rt: r, name: name, bytes: bytes}
}

// Synchronize brings the data back to the host (array_view::synchronize),
// paying a device-to-host transfer if the device copy is fresh.
func (v *ArrayView) Synchronize() float64 {
	if !v.onDevice {
		return 0
	}
	v.onDevice = false
	return v.rt.Machine().TransferFromDevice(v.name, v.bytes)
}

// HostWrite marks the host copy as modified (CPU code wrote through the
// view), forcing the next capturing kernel to re-copy it to the device.
// It synchronizes first if the fresh copy is on the device.
func (v *ArrayView) HostWrite() float64 { return v.Synchronize() }

// stageIn copies the view to the device if the fresh copy is on the host.
func (v *ArrayView) stageIn() float64 {
	if v.onDevice {
		return 0
	}
	v.onDevice = true
	return v.rt.Machine().TransferToDevice(v.name, v.bytes)
}

func (r *Runtime) stageAll(views []*ArrayView) {
	for _, v := range views {
		v.stageIn()
	}
}

func syncAll(views []*ArrayView) {
	for _, v := range views {
		v.Synchronize()
	}
}

// Launch prices a parallel_for_each over the extent (a restrict(amp)
// lambda) whose measured per-item work is per. views lists every
// ArrayView the lambda captures; each is staged to the device as needed
// and left device-fresh afterwards (conservatively assumed written).
//
// The launch goes through the shared driver
// (modelapi.Runtime.LaunchResilient). AMP's recovery cost follows its
// conservative data management: after a failed launch the runtime cannot
// prove which captured views the aborted kernel dirtied, so every
// captured view's device copy is invalidated and re-staged before the
// retry — the whole capture set round-trips, not just what the kernel
// needed (compare the OpenCL runtime, which re-stages only staged
// argument buffers). The host fallback synchronizes every view back and
// leaves the next device kernel to pay the re-staging.
func (r *Runtime) Launch(spec modelapi.KernelSpec, ext Extent, views []*ArrayView, per exec.Counters) timing.Result {
	r.stageAll(views)
	n := ext.Size
	return r.LaunchResilient(&modelapi.Launch{
		Spec: spec, Items: n, Per: per, Cost: r.Cost(spec, n, per),
	}, modelapi.Recovery{
		Restage: func() {
			for _, v := range views {
				v.onDevice = false
			}
			r.stageAll(views)
		},
		Sync: func() { syncAll(views) },
	})
}

// LaunchHostFallback runs a kernel of measured per-item work per on the
// host CPU instead of the GPU — the paper's LULESH situation, where one of
// 28 kernels would not compile under CLAMP on the discrete GPU ("we were
// able to implement only 27 out of the 28 kernels ... one kernel was
// implemented on the CPU which led to data-transfer overhead").
//
// Every captured view must round-trip on every call: device→host before
// the CPU code runs, then the host copies are stale-on-device so the next
// GPU kernel pays host→device again (handled by stageIn).
func (r *Runtime) LaunchHostFallback(spec modelapi.KernelSpec, n int, views []*ArrayView, per exec.Counters) timing.Result {
	syncAll(views)
	return r.LaunchOnHost(spec.Name+"(cpu-fallback)", spec, n, per)
}
