// Package openacc is the directive-style runtime: `#pragma acc kernels
// loop` regions with gang/vector clauses, and `#pragma acc data` regions
// that decouple data movement from compute.
//
// Transfer semantics follow the paper's description of the PGI-era
// behaviour: without an enclosing data region, each kernels region
// conservatively copies its arrays to the device on entry and back on exit
// — cheap on the APU, ruinous across PCIe. A Data region hoists the copies
// (the "data directive ... particularly useful on discrete GPUs").
//
// The code generator is the weakest of the three models (Figure 11 and
// Section VI): no local-data-store access, no barriers, and the gang/
// vector mapping fails to vectorize irregular loops (the CoMD result),
// which the profile models as a large scalar fraction.
package openacc

import (
	"fmt"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// Runtime binds the OpenACC model to a machine.
type Runtime struct {
	*modelapi.Runtime
	// open data regions, innermost last; arrays present in any open
	// region are device-resident and not re-copied by kernels regions.
	regions []*DataRegion
}

// New returns an OpenACC runtime for the machine.
func New(machine *sim.Machine) *Runtime {
	return &Runtime{Runtime: modelapi.NewRuntime(machine, modelapi.OpenACC)}
}

// Intent is a data clause kind.
type Intent int

// Data clause intents (subset of the OpenACC 2.0 clauses the paper's
// applications use).
const (
	// IntentCopy copies to the device on entry and back on exit.
	IntentCopy Intent = iota
	// IntentCopyin copies to the device on entry only.
	IntentCopyin
	// IntentCopyout allocates on entry and copies back on exit.
	IntentCopyout
	// IntentCreate allocates device storage with no copies.
	IntentCreate
)

// Clause names one array and how it moves.
type Clause struct {
	Name   string
	Bytes  int64
	Intent Intent
}

// Copy builds a copy clause.
func Copy(name string, bytes int64) Clause { return Clause{name, bytes, IntentCopy} }

// Copyin builds a copyin clause.
func Copyin(name string, bytes int64) Clause { return Clause{name, bytes, IntentCopyin} }

// Copyout builds a copyout clause.
func Copyout(name string, bytes int64) Clause { return Clause{name, bytes, IntentCopyout} }

// Create builds a create clause.
func Create(name string, bytes int64) Clause { return Clause{name, bytes, IntentCreate} }

func (c Clause) validate() error {
	if c.Name == "" {
		return fmt.Errorf("openacc: clause with empty array name")
	}
	if c.Bytes < 0 {
		return fmt.Errorf("openacc: clause %s with negative size %d", c.Name, c.Bytes)
	}
	return nil
}

// copiesIn reports whether the clause copies its array to the device on
// entry (copy, copyin).
func (c Clause) copiesIn() bool { return c.Intent == IntentCopy || c.Intent == IntentCopyin }

// copiesOut reports whether the clause copies its array back on exit
// (copy, copyout).
func (c Clause) copiesOut() bool { return c.Intent == IntentCopy || c.Intent == IntentCopyout }

// copies reports whether the clause moves its array at all (every intent
// but create).
func (c Clause) copies() bool { return c.Intent != IntentCreate }

// DataRegion is an open `#pragma acc data` structured region.
type DataRegion struct {
	rt      *Runtime
	clauses []Clause
	closed  bool
}

// Data opens a data region: entry copies happen now, exit copies at End.
func (r *Runtime) Data(clauses ...Clause) *DataRegion {
	for _, c := range clauses {
		if err := c.validate(); err != nil {
			panic(err)
		}
		if c.copiesIn() {
			r.Machine().TransferToDevice(c.Name, c.Bytes)
		}
	}
	reg := &DataRegion{rt: r, clauses: clauses}
	r.regions = append(r.regions, reg)
	return reg
}

// End closes the region, performing exit copies. Regions must close in
// LIFO order (structured-block semantics); violating that panics.
func (d *DataRegion) End() {
	if d.closed {
		panic("openacc: data region closed twice")
	}
	r := d.rt
	if len(r.regions) == 0 || r.regions[len(r.regions)-1] != d {
		panic("openacc: data regions must close innermost-first")
	}
	r.regions = r.regions[:len(r.regions)-1]
	d.closed = true
	for _, c := range d.clauses {
		if c.copiesOut() {
			r.Machine().TransferFromDevice(c.Name, c.Bytes)
		}
	}
}

// present reports whether an array is device-resident via any open region.
func (r *Runtime) present(name string) bool {
	for _, reg := range r.regions {
		for _, c := range reg.clauses {
			if c.Name == name {
				return true
			}
		}
	}
	return false
}

// Launch prices a kernels-loop region, `#pragma acc kernels loop`, over
// n iterations whose measured per-item work is per. uses declares the
// arrays the loop touches; any not covered by an open data region are
// conservatively copied in before and out after the launch (the compiler
// cannot prove read-onlyness across the region).
func (r *Runtime) Launch(spec modelapi.KernelSpec, n int, uses []Clause, per exec.Counters) timing.Result {
	return r.finishLoop(spec, n, uses, per, 1)
}

// LaunchGV is Launch with explicit `gang(G) vector(V)` clauses (Figure
// 5's `gang(size/BLOCKSIZE) vector(BLOCKSIZE)`). The vector length maps
// to wavefront lanes: a V that is not a multiple of the 64-lane
// wavefront leaves lanes idle — the paper's "OpenACC also proved
// challenging in terms of mapping the parallelism to appropriately use
// GPU vector cores". gang×vector must cover n.
func (r *Runtime) LaunchGV(spec modelapi.KernelSpec, n, gang, vector int, uses []Clause, per exec.Counters) timing.Result {
	if gang <= 0 || vector <= 0 {
		panic(fmt.Sprintf("openacc: gang(%d) vector(%d) must be positive", gang, vector))
	}
	if gang*vector < n {
		panic(fmt.Sprintf("openacc: gang(%d)×vector(%d) < loop count %d", gang, vector, n))
	}
	wf := r.Machine().Accelerator().WavefrontSize
	rounded := (vector + wf - 1) / wf * wf
	util := float64(vector) / float64(rounded)
	return r.finishLoop(spec, n, uses, per, util)
}

// finishLoop runs one kernels region around a launch: non-present input
// clauses copy in, the launch runs with its vector efficiency derated by
// util (the filled share of each wavefront's lanes; 1 for a plain loop),
// and non-present output clauses copy out.
//
// The launch goes through the shared driver
// (modelapi.Runtime.LaunchResilient) with the coarsest recovery
// granularity of the three runtimes: the generated runtime tracks data at
// region scope, so after a failed launch it re-establishes the whole
// kernels region — every copy/copyin clause of every open data region
// plus the loop's own non-present input clauses is copied to the device
// again before the retry. The host
// fallback round-trips the full region: all device-resident region arrays
// come back to the host, the loop runs on the CPU, and the region's
// inputs are pushed down again to restore device residency.
func (r *Runtime) finishLoop(spec modelapi.KernelSpec, n int, uses []Clause, per exec.Counters, util float64) timing.Result {
	m := r.Machine()
	for _, c := range uses {
		if err := c.validate(); err != nil {
			panic(err)
		}
		if !r.present(c.Name) && c.copiesIn() {
			m.TransferToDevice(c.Name, c.Bytes)
		}
	}
	cost := r.Cost(spec, n, per)
	if util > 0 && util < 1 {
		// Idle lanes inside partially-filled wavefronts.
		cost.VecEff *= util
	}
	result := r.LaunchResilient(&modelapi.Launch{
		Spec: spec, Items: n, Per: per, Cost: cost,
	}, modelapi.Recovery{
		Restage:   func() { r.moveRegion(uses, Clause.copiesIn, m.TransferToDevice, "(restage)") },
		Sync:      func() { r.moveRegion(uses, Clause.copies, m.TransferFromDevice, "(fallback-sync)") },
		RoundTrip: true,
	})
	for _, c := range uses {
		if !r.present(c.Name) && c.copiesOut() {
			m.TransferFromDevice(c.Name, c.Bytes)
		}
	}
	return result
}

// moveRegion copies the whole kernels region one way, tagging each copy
// with suffix: every clause that moves selects, of every open data region
// and of the loop's own non-present clauses.
func (r *Runtime) moveRegion(uses []Clause, moves func(Clause) bool, move func(name string, bytes int64) float64, suffix string) {
	for _, reg := range r.regions {
		for _, c := range reg.clauses {
			if moves(c) {
				move(c.Name+suffix, c.Bytes)
			}
		}
	}
	for _, c := range uses {
		if !r.present(c.Name) && moves(c) {
			move(c.Name+suffix, c.Bytes)
		}
	}
}

// UpdateHost is `#pragma acc update host(...)`: refresh a host copy of a
// device-resident array mid-region (used for per-iteration convergence or
// time-constraint checks).
func (r *Runtime) UpdateHost(name string, bytes int64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("openacc: negative update host size %d", bytes))
	}
	return r.Machine().TransferFromDevice(name, bytes)
}

// UpdateDevice is `#pragma acc update device(...)`.
func (r *Runtime) UpdateDevice(name string, bytes int64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("openacc: negative update device size %d", bytes))
	}
	return r.Machine().TransferToDevice(name, bytes)
}
