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

	"hetbench/internal/fault"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Runtime binds the AMP model to a machine (an accelerator_view).
type Runtime struct {
	machine *sim.Machine
	profile *modelapi.Profile
	cache   map[string]exec.Counters
	corrupt fault.Corruptor
	coexec  bool
}

// New returns an AMP runtime for the machine.
func New(machine *sim.Machine) *Runtime {
	return &Runtime{
		machine: machine,
		profile: modelapi.ProfileOn(modelapi.CppAMP, machine.Unified()),
		cache:   make(map[string]exec.Counters),
	}
}

// Machine returns the bound machine.
func (r *Runtime) Machine() *sim.Machine { return r.machine }

// WithCoexec opts this runtime's streaming and regular kernels into
// CPU+accelerator co-execution whenever a planner is attached to the
// machine (sim.Machine.SetCoexec); without one, launches are unchanged.
// Irregular kernels always stay single-device.
func (r *Runtime) WithCoexec() *Runtime {
	r.coexec = true
	return r
}

// Bind registers an output array as a silent-corruption target (see
// fault.Corruptor). Apps re-bind per run.
func (r *Runtime) Bind(name string, data []float64) { r.corrupt.Bind(name, data) }

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
	return v.rt.machine.TransferFromDevice(v.name, v.bytes)
}

// HostWrite marks the host copy as modified (CPU code wrote through the
// view), forcing the next capturing kernel to re-copy it to the device.
// It synchronizes first if the fresh copy is on the device.
func (v *ArrayView) HostWrite() float64 {
	t := v.Synchronize()
	return t
}

// stageIn copies the view to the device if the fresh copy is on the host.
func (v *ArrayView) stageIn() float64 {
	if v.onDevice {
		return 0
	}
	v.onDevice = true
	return v.rt.machine.TransferToDevice(v.name, v.bytes)
}

// ParallelForEach launches a simple kernel over the extent
// (parallel_for_each with a restrict(amp) lambda). views lists every
// ArrayView the lambda captures; each is staged to the device as needed
// and left device-fresh afterwards (conservatively assumed written).
func (r *Runtime) ParallelForEach(spec modelapi.KernelSpec, ext Extent, views []*ArrayView, body func(*exec.WorkItem)) timing.Result {
	r.stageAll(views)
	res := exec.Run(ext.Size, body)
	per := res.Counters.PerItem(ext.Size)
	r.cache[spec.Name] = per
	cost := spec.Cost(r.profile, ext.Size, per)
	return r.launchResilient(spec, ext.Size, per, cost, views)
}

// Launch runs the kernel functionally when functional is true (or when no
// cost is cached), otherwise replays the cached cost with the same view-
// staging semantics.
func (r *Runtime) Launch(spec modelapi.KernelSpec, ext Extent, views []*ArrayView, functional bool, body func(*exec.WorkItem)) timing.Result {
	per, ok := r.cache[spec.Name]
	if functional || !ok {
		return r.ParallelForEach(spec, ext, views, body)
	}
	return r.Replay(spec, ext.Size, views, per)
}

// ParallelForEachTiled launches a tiled kernel with tile_static storage of
// ldsFloats float64 words and barrier-delimited phases
// (tiled_index + tile_barrier in AMP).
func (r *Runtime) ParallelForEachTiled(spec modelapi.KernelSpec, ext TiledExtent, ldsFloats int, views []*ArrayView, phases ...exec.Phase) timing.Result {
	r.stageAll(views)
	res := exec.RunTiled(ext.Size, ext.Tile, ldsFloats, phases...)
	per := res.Counters.PerItem(ext.Size)
	cost := spec.Cost(r.profile, ext.Size, per)
	return r.launchResilient(spec, ext.Size, per, cost, views)
}

// Replay charges another launch with previously measured per-item counters
// (views are still staged, preserving transfer semantics).
func (r *Runtime) Replay(spec modelapi.KernelSpec, n int, views []*ArrayView, per exec.Counters) timing.Result {
	r.stageAll(views)
	return r.launchResilient(spec, n, per, spec.Cost(r.profile, n, per), views)
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

// launchResilient issues one device launch through the shared driver
// (modelapi.LaunchResilient). AMP's recovery cost follows its
// conservative data management: after a failed launch the runtime cannot
// prove which captured views the aborted kernel dirtied, so every
// captured view's device copy is invalidated and re-staged before the
// retry — the whole capture set round-trips, not just what the kernel
// needed (compare the OpenCL runtime, which re-stages only staged
// argument buffers). The host fallback synchronizes every view back and
// leaves the next device kernel to pay the re-staging.
func (r *Runtime) launchResilient(spec modelapi.KernelSpec, n int, per exec.Counters, cost timing.KernelCost, views []*ArrayView) timing.Result {
	return modelapi.LaunchResilient(r.machine, &r.corrupt, &modelapi.Launch{
		Spec: spec, Items: n, Per: per, Cost: cost, Coexec: r.coexec,
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
	syncAll(views)
	res := exec.Run(n, body)
	per := res.Counters.PerItem(n)
	r.cache["host:"+spec.Name] = per
	cost := spec.Cost(modelapi.ProfileFor(modelapi.OpenMP), n, per)
	return r.machine.LaunchKernel(sim.OnHost, spec.Name+"(cpu-fallback)", cost)
}

// LaunchHostFallback is the launch-or-replay form of HostFallback; replays
// still pay the view round-trips every call (the whole point of the
// paper's LULESH observation).
func (r *Runtime) LaunchHostFallback(spec modelapi.KernelSpec, n int, views []*ArrayView, functional bool, body func(*exec.WorkItem)) timing.Result {
	per, ok := r.cache["host:"+spec.Name]
	if functional || !ok {
		return r.HostFallback(spec, n, views, body)
	}
	syncAll(views)
	cost := spec.Cost(modelapi.ProfileFor(modelapi.OpenMP), n, per)
	return r.machine.LaunchKernel(sim.OnHost, spec.Name+"(cpu-fallback)", cost)
}
