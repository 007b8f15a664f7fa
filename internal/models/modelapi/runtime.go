package modelapi

import (
	"hetbench/internal/fault"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Runtime is the core every model runtime embeds. It binds a model to a
// machine and holds what all five runtimes share: the model's profile on
// that machine, the OpenMP host profile that co-executed CPU shares and
// host fallbacks run under, the silent-corruption targets and the
// co-execution opt-in. A runtime adds only its data-management idiom and
// the Recovery hooks that price it.
//
// A runtime prices work; it does not decide what a kernel computes. Its
// launch methods take the per-item counters a functional pass measured
// (the apps record them once per run, see appcore.Recorder); the
// body-taking conveniences (ParallelFor, EnqueueNDRange, ...) measure
// their body with exec.Measure and price the result the same way.
type Runtime struct {
	machine *sim.Machine
	profile *Profile
	host    *Profile
	corrupt fault.Corruptor
	coexec  bool
}

// NewRuntime binds model n to a machine, with n's profile adjusted for
// the machine's memory architecture (ProfileOn).
func NewRuntime(machine *sim.Machine, n Name) *Runtime {
	return &Runtime{
		machine: machine,
		profile: ProfileOn(n, machine.Unified()),
		host:    ProfileFor(OpenMP),
	}
}

// Machine returns the bound machine.
func (r *Runtime) Machine() *sim.Machine { return r.machine }

// Cost is spec's timing-model input for n items of per-item work per,
// compiled by this runtime's profile.
func (r *Runtime) Cost(spec KernelSpec, n int, per exec.Counters) timing.KernelCost {
	return spec.Cost(r.profile, n, per)
}

// EnableCoexec opts the runtime's streaming and regular kernels into
// CPU+accelerator co-execution whenever a planner is attached to the
// machine (sim.Machine.SetCoexec); without one, launches are unchanged.
// Irregular kernels always stay single-device, matching the paper's
// observation that generated code quality collapses on them.
func (r *Runtime) EnableCoexec() { r.coexec = true }

// Bind registers an output array as a silent-corruption target: when the
// fault injector flips a bit in a kernel's output, the flip lands in a
// bound slice (see fault.Corruptor). Apps bind their real output arrays
// when a run executes under a fault injector.
func (r *Runtime) Bind(name string, data []float64) { r.corrupt.Bind(name, data) }

// LaunchOnHost charges a launch named name of spec over n items on the
// host CPU, compiled by the OpenMP host profile.
func (r *Runtime) LaunchOnHost(name string, spec KernelSpec, n int, per exec.Counters) timing.Result {
	return r.machine.LaunchKernel(sim.OnHost, name, spec.Cost(r.host, n, per))
}
