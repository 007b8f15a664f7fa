// Package openmp is the host-CPU baseline runtime: a `#pragma omp parallel
// for` equivalent that charges a loop's measured work across the
// simulated CPU's cores on the machine's host timing model. Every speedup
// in the paper (Figures 8 and 9) is measured against this 4-core
// baseline.
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

// Launch prices a parallel loop of n items whose measured per-item work
// is per across the host cores — the one-pragma port of a serial loop
// (paper Figure 3b).
func (r *Runtime) Launch(spec modelapi.KernelSpec, n int, per exec.Counters) timing.Result {
	return r.LaunchOnHost(spec.Name, spec, n, per)
}
