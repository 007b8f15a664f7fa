// Package opencl is the explicit, low-level runtime: contexts, command
// queues, buffers with programmer-managed staging, and NDRange kernel
// launches with optional work-group tiling and local-data-store use — the
// traditional model the paper treats as the performance yardstick.
//
// The API mirrors the host-side structure of Figure 4a: create buffers,
// copy data to the device (a real PCIe cost on the discrete machine, free
// on the APU), set arguments by closure capture, launch, and copy back.
package opencl

import (
	"fmt"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Context owns buffers and kernels for one machine, as in clCreateContext.
type Context struct {
	*modelapi.Runtime
}

// NewContext initializes the runtime for a machine (the InitCl() of
// Figure 4a collapses to this).
func NewContext(machine *sim.Machine) *Context {
	return &Context{modelapi.NewRuntime(machine, modelapi.OpenCL)}
}

// WithCoexec opts this context into co-execution (see
// modelapi.Runtime.EnableCoexec).
func (c *Context) WithCoexec() *Context {
	c.EnableCoexec()
	return c
}

// Buffer is a device allocation (cl_mem). The simulator keeps one copy of
// the data (the Go slice owned by the application); Buffer tracks the
// allocation size so transfers are charged faithfully. staged records that
// the program explicitly wrote the buffer to the device, which is exactly
// the set the resilience layer re-stages after a launch failure — the
// explicit model's recovery advantage.
type Buffer struct {
	ctx    *Context
	name   string
	bytes  int64
	staged bool
}

// CreateBuffer allocates a device buffer of the given size.
func (c *Context) CreateBuffer(name string, bytes int64) *Buffer {
	if bytes < 0 {
		panic(fmt.Sprintf("opencl: negative buffer size %d", bytes))
	}
	return &Buffer{ctx: c, name: name, bytes: bytes}
}

// Bytes returns the allocation size.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Queue is an in-order command queue. The simulated machine is synchronous,
// so enqueue operations complete (and charge time) immediately; Finish is
// kept for API fidelity.
type Queue struct {
	ctx *Context
}

// NewQueue creates a command queue.
func (c *Context) NewQueue() *Queue { return &Queue{ctx: c} }

// EnqueueWriteBuffer stages a buffer's contents into device memory:
// a PCIe transfer on the discrete machine, free on the APU (the paper's
// "the host-code ... is much simpler without the need for ... staging
// data" advantage).
func (q *Queue) EnqueueWriteBuffer(b *Buffer) float64 {
	b.staged = true
	return q.ctx.Machine().TransferToDevice(b.name, b.bytes)
}

// EnqueueReadBuffer copies a buffer's contents back to the host.
func (q *Queue) EnqueueReadBuffer(b *Buffer) float64 {
	return q.ctx.Machine().TransferFromDevice(b.name, b.bytes)
}

// Finish blocks until the queue drains (a no-op on the synchronous
// simulator, present for API fidelity).
func (q *Queue) Finish() {}

// Kernel is a compiled device function. Exactly one of body or phases is
// set: simple kernels give a per-item body; tiled kernels give barrier-
// delimited phases with an LDS allocation.
type Kernel struct {
	ctx    *Context
	spec   modelapi.KernelSpec
	body   func(*exec.WorkItem)
	phases []exec.Phase
	lds    int

	// Unroll marks the kernel as hand-unrolled (an OpenCL-only tuning
	// knob per Figure 11): the dynamic instruction count drops.
	Unroll bool

	// args are the buffers bound with SetArgs; the resilience layer
	// re-stages the staged ones between retry attempts.
	args []*Buffer
}

// SetArgs binds the kernel's buffer arguments (clSetKernelArg). Argument
// binding is what lets the resilience layer re-stage precisely the failed
// kernel's staged inputs — and nothing else — after a transient fault.
func (k *Kernel) SetArgs(bufs ...*Buffer) *Kernel {
	k.args = bufs
	return k
}

// CreateKernel compiles a simple (non-tiled) kernel.
func (c *Context) CreateKernel(spec modelapi.KernelSpec, body func(*exec.WorkItem)) *Kernel {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if body == nil {
		panic("opencl: nil kernel body")
	}
	return &Kernel{ctx: c, spec: spec, body: body}
}

// CreateTiledKernel compiles a kernel that uses work-group local memory
// (ldsFloats float64 words per group) and barrier-delimited phases.
func (c *Context) CreateTiledKernel(spec modelapi.KernelSpec, ldsFloats int, phases ...exec.Phase) *Kernel {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if len(phases) == 0 {
		panic("opencl: tiled kernel needs phases")
	}
	return &Kernel{ctx: c, spec: spec, phases: phases, lds: ldsFloats}
}

// Spec returns the kernel's spec.
func (k *Kernel) Spec() modelapi.KernelSpec { return k.spec }

// EnqueueNDRange launches the kernel over global work items (local sets
// the work-group size for tiled kernels; simple kernels ignore it) and
// returns the simulated timing.
func (q *Queue) EnqueueNDRange(k *Kernel, global, local int) timing.Result {
	per := q.ctx.Measure(k.spec.Name, global, true, func() exec.Result {
		if k.phases != nil {
			return exec.RunTiled(global, local, k.lds, k.phases...)
		}
		return exec.Run(global, k.body)
	})
	if k.Unroll {
		// Hand-unrolling removes loop-control overhead: fewer dynamic
		// instructions for the same flops/bytes.
		per.Instrs *= 0.75
	}
	return q.ctx.launch(k.spec, global, per, k.args)
}

// LaunchFunc launches a kernel given as a closure, for bodies that
// capture loop-varying state (e.g. the timestep): functional calls (and
// the first call for a spec name) execute body, later calls replay the
// counters it measured.
func (q *Queue) LaunchFunc(spec modelapi.KernelSpec, global int, functional bool, body func(*exec.WorkItem)) timing.Result {
	per := q.ctx.Measure(spec.Name, global, functional, func() exec.Result { return exec.Run(global, body) })
	return q.ctx.launch(spec, global, per, nil)
}

// ---------------------------------------------------------------------
// Resilience.

// launch issues one device launch through the shared driver
// (modelapi.Runtime.LaunchResilient). The explicit model's recovery cost
// is exactly the buffers the programmer staged, no more: a retry
// restages the kernel's staged argument buffers, and the host fallback
// round-trips them — results must land back on the device so subsequent
// kernels see them.
func (c *Context) launch(spec modelapi.KernelSpec, global int, per exec.Counters, args []*Buffer) timing.Result {
	m := c.Machine()
	return c.LaunchResilient(&modelapi.Launch{
		Spec: spec, Items: global, Per: per, Cost: c.Cost(spec, global, per),
	}, modelapi.Recovery{
		Restage:   func() { moveStaged(args, m.TransferToDevice, "(restage)") },
		Sync:      func() { moveStaged(args, m.TransferFromDevice, "(fallback-sync)") },
		RoundTrip: true,
	})
}

// moveStaged copies every staged argument buffer one way.
func moveStaged(args []*Buffer, move func(name string, bytes int64) float64, suffix string) {
	for _, b := range args {
		if b != nil && b.staged {
			move(b.name+suffix, b.bytes)
		}
	}
}
