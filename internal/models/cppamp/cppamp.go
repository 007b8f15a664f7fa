// Package cppamp is the C++ AMP-like runtime: extents, tiles,
// parallel_for_each with closure capture, and array_view data management.
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

// WithCoexec opts this runtime into co-execution (see
// modelapi.Runtime.EnableCoexec).
func (r *Runtime) WithCoexec() *Runtime {
	r.EnableCoexec()
	return r
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

// TiledExtent is an extent divided into tiles (extent.tile<N>()).
type TiledExtent struct {
	Extent
	Tile int
}

// TileBy divides the extent into tiles of the given size; the extent must
// be tile-divisible, as AMP requires.
func (e Extent) TileBy(tile int) TiledExtent {
	if tile <= 0 || e.Size%tile != 0 {
		panic(fmt.Sprintf("cppamp: extent %d not divisible into tiles of %d", e.Size, tile))
	}
	return TiledExtent{Extent: e, Tile: tile}
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

// Bytes returns the wrapped allocation size.
func (v *ArrayView) Bytes() int64 { return v.bytes }

// OnDevice reports where the fresh copy currently lives.
func (v *ArrayView) OnDevice() bool { return v.onDevice }

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

// ParallelForEach launches a simple kernel over the extent
// (parallel_for_each with a restrict(amp) lambda). views lists every
// ArrayView the lambda captures; each is staged to the device as needed
// and left device-fresh afterwards (conservatively assumed written).
func (r *Runtime) ParallelForEach(spec modelapi.KernelSpec, ext Extent, views []*ArrayView, body func(*exec.WorkItem)) timing.Result {
	return r.Launch(spec, ext, views, exec.Measure(ext.Size, body))
}

// Launch prices a parallel_for_each over the extent whose measured
// per-item work is per, with ParallelForEach's view-staging semantics.
func (r *Runtime) Launch(spec modelapi.KernelSpec, ext Extent, views []*ArrayView, per exec.Counters) timing.Result {
	r.stageAll(views)
	return r.launch(spec, ext.Size, per, views)
}

// ParallelForEachTiled launches a tiled kernel with tile_static storage of
// ldsFloats float64 words and barrier-delimited phases
// (tiled_index + tile_barrier in AMP).
func (r *Runtime) ParallelForEachTiled(spec modelapi.KernelSpec, ext TiledExtent, ldsFloats int, views []*ArrayView, phases ...exec.Phase) timing.Result {
	per := exec.RunTiled(ext.Size, ext.Tile, ldsFloats, phases...).Counters.PerItem(ext.Size)
	r.stageAll(views)
	return r.launch(spec, ext.Size, per, views)
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

// launch issues one device launch through the shared driver
// (modelapi.Runtime.LaunchResilient). AMP's recovery cost follows its
// conservative data management: after a failed launch the runtime cannot
// prove which captured views the aborted kernel dirtied, so every
// captured view's device copy is invalidated and re-staged before the
// retry — the whole capture set round-trips, not just what the kernel
// needed (compare the OpenCL runtime, which re-stages only staged
// argument buffers). The host fallback synchronizes every view back and
// leaves the next device kernel to pay the re-staging.
func (r *Runtime) launch(spec modelapi.KernelSpec, n int, per exec.Counters, views []*ArrayView) timing.Result {
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

// HostFallback runs a kernel on the host CPU instead of the GPU — the
// paper's LULESH situation, where one of 28 kernels would not compile
// under CLAMP on the discrete GPU ("we were able to implement only 27 out
// of the 28 kernels ... one kernel was implemented on the CPU which led to
// data-transfer overhead").
//
// Every captured view must round-trip: device→host before the CPU code
// runs, then the host copies are stale-on-device so the next GPU kernel
// pays host→device again (handled by stageIn).
func (r *Runtime) HostFallback(spec modelapi.KernelSpec, n int, views []*ArrayView, body func(*exec.WorkItem)) timing.Result {
	return r.LaunchHostFallback(spec, n, views, exec.Measure(n, body))
}

// LaunchHostFallback prices HostFallback for measured per-item work per;
// every call pays the view round-trips (the whole point of the paper's
// LULESH observation).
func (r *Runtime) LaunchHostFallback(spec modelapi.KernelSpec, n int, views []*ArrayView, per exec.Counters) timing.Result {
	syncAll(views)
	return r.LaunchOnHost(spec.Name+"(cpu-fallback)", spec, n, per)
}
