// Package opencl is the explicit, low-level runtime: contexts, command
// queues, buffers with programmer-managed staging, and NDRange kernel
// launches — the traditional model the paper treats as the performance
// yardstick. Work-group tiling is a property of the kernel body (CoMD's
// tiled force kernel tallies the LDS traffic its tiles cause); the launch
// prices those counters.
//
// The API mirrors the host-side structure of Figure 4a: create buffers,
// copy data to the device (a real PCIe cost on the discrete machine, free
// on the APU), launch with the kernel's buffer arguments, and copy back.
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

// Launch prices an NDRange of global items whose measured per-item work
// is per (from a recorded functional pass or exec.Measure). args are the
// kernel's buffer arguments (clSetKernelArg); binding them is what lets
// the resilience layer re-stage precisely the failed kernel's staged
// inputs — and nothing else — after a transient fault.
//
// The launch goes through the shared driver
// (modelapi.Runtime.LaunchResilient). The explicit model's recovery cost
// is exactly the buffers the programmer staged, no more: a retry
// restages the kernel's staged argument buffers, and the host fallback
// round-trips them — results must land back on the device so subsequent
// kernels see them.
func (q *Queue) Launch(spec modelapi.KernelSpec, global int, per exec.Counters, args ...*Buffer) timing.Result {
	c := q.ctx
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
