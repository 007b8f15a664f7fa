// Package openmp is the host-CPU baseline runtime: a `#pragma omp parallel
// for` equivalent that executes loop bodies functionally across the
// simulated CPU's cores and charges time on the machine's host timing
// model. Every speedup in the paper (Figures 8 and 9) is measured against
// this 4-core baseline.
package openmp

import (
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Runtime executes OpenMP-style parallel loops on a machine's host CPU.
type Runtime struct {
	*modelapi.Runtime
}

// New returns a runtime bound to the machine's host CPU.
func New(machine *sim.Machine) *Runtime {
	return &Runtime{modelapi.NewRuntime(machine, modelapi.OpenMP)}
}

// ParallelFor runs body for i in [0, n) across the host cores — the
// one-pragma port of a serial loop (paper Figure 3b) — and returns the
// timing result. The body tallies its work on the WorkItem.
func (r *Runtime) ParallelFor(spec modelapi.KernelSpec, n int, body func(*exec.WorkItem)) timing.Result {
	return r.Launch(spec, n, true, body)
}

// Launch runs the loop functionally when functional is true (or when no
// cost has been measured yet), and otherwise replays the cached per-item
// cost — the iterative-application fast path for iterations beyond the
// functional sample.
func (r *Runtime) Launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) timing.Result {
	per := r.Measure(spec.Name, n, functional, func() exec.Result { return exec.Run(n, body) })
	return r.LaunchOnHost(spec.Name, spec, n, per)
}

// Serial runs body(i) for i in [0, n) on one core: the un-annotated loop.
// It is used for the serial-CPU reference implementations.
func (r *Runtime) Serial(spec modelapi.KernelSpec, n int, body func(*exec.WorkItem)) timing.Result {
	res := exec.Run(n, body) // functionally parallel, logically serial
	per := res.Counters.PerItem(n)
	cost := r.Cost(spec, n, per)
	cost.SerialFraction = 0
	// One core: scale the modeled work up by the core count so the
	// timing model's full-device rate yields single-core time.
	host := r.Machine().Host()
	scale := float64(host.ComputeUnits * host.LanesPerCU)
	cost.SPFlops *= scale
	cost.DPFlops *= scale
	cost.Instrs *= float64(host.ComputeUnits)
	return r.Machine().LaunchKernel(sim.OnHost, spec.Name, cost)
}
