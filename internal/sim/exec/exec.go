// Package exec is the functional execution engine of the simulator: it
// really runs kernel bodies (as Go closures) over an OpenCL-style NDRange,
// in parallel across host cores, while accumulating the operation counters
// (flops, bytes, instructions) that the timing model converts into
// simulated device time.
//
// Two kernel shapes are supported:
//
//   - Simple kernels: one function per work item, no cross-item
//     communication. Run with Run.
//   - Tiled kernels: work-groups with group-shared scratch (the local data
//     store) and barrier phases. A kernel that in OpenCL would be written
//     as "code; barrier(CLK_LOCAL_MEM_FENCE); code" is expressed as one
//     Phase per barrier-delimited region, which gives exactly the barrier
//     semantics (all items complete phase k before any starts k+1) without
//     per-item goroutines. Run with RunTiled.
//
// Each worker goroutine owns the counters it tallies into: they live in
// its WorkItem or Group, are written to the worker's slot of the launch
// once when its chunk is done, and are merged in worker order after all
// workers finish. Kernels therefore tally without atomics, and no two
// workers write the same cache line while they run.
//
// A kernel whose per-item work does not depend on the data (the same
// Counters for every item of the launch) is built with Uniform, which
// charges that work once per worker chunk instead of once per item. The
// apps charge only integers below 2^53 this way, so per × n equals the
// n-term sum bit for bit and the chunking (and so GOMAXPROCS) never
// reaches the totals.
package exec

import (
	"fmt"
	"runtime"
	"sync"
)

// Counters aggregates the dynamic work of a launch. Fields are totals
// across all work items.
type Counters struct {
	SPFlops    float64
	DPFlops    float64
	LoadBytes  float64
	StoreBytes float64
	LDSBytes   float64
	Instrs     float64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.SPFlops += other.SPFlops
	c.DPFlops += other.DPFlops
	c.LoadBytes += other.LoadBytes
	c.StoreBytes += other.StoreBytes
	c.LDSBytes += other.LDSBytes
	c.Instrs += other.Instrs
}

// PerItem divides the totals by n work items, for the timing model's
// per-item cost fields.
func (c Counters) PerItem(n int) Counters {
	if n <= 0 {
		return Counters{}
	}
	return c.scaled(1 / float64(n))
}

// scaled multiplies every field by f.
func (c Counters) scaled(f float64) Counters {
	return Counters{
		SPFlops:    c.SPFlops * f,
		DPFlops:    c.DPFlops * f,
		LoadBytes:  c.LoadBytes * f,
		StoreBytes: c.StoreBytes * f,
		LDSBytes:   c.LDSBytes * f,
		Instrs:     c.Instrs * f,
	}
}

// WorkItem is the per-item context handed to simple kernels. One
// WorkItem serves a worker's whole chunk of items.
type WorkItem struct {
	// Global is the work item's global index. Kernels read it; only
	// Uniform moves it, to the end of its chunk.
	Global int
	// end bounds the worker's chunk: items [Global, end) remain.
	end int
	// counters are the worker's own totals.
	counters Counters
}

// Tally accumulates this item's work into the worker's counters.
func (w *WorkItem) Tally(c Counters) { w.counters.Add(c) }

// Uniform builds a simple kernel whose every item does the same work:
// body(i) runs once for each global index i, and per is charged once per
// worker chunk as per × (items in the chunk). Use it when an item's
// tally is launch-invariant; a tally that depends on the data belongs in
// a per-item Tally. The kernel must be launched by Run itself, not
// called from another kernel: each call runs the rest of its chunk.
func Uniform(per Counters, body func(i int)) func(*WorkItem) {
	return func(w *WorkItem) {
		lo, hi := w.Global, w.end
		for i := lo; i < hi; i++ {
			body(i)
		}
		w.counters.Add(per.scaled(float64(hi - lo)))
		w.Global = hi - 1 // Run's increment then ends the chunk
	}
}

// Group is the per-work-group context handed to tiled kernel phases.
type Group struct {
	// ID is the work-group index; Size its item count.
	ID, Size int
	// LDS is the group-shared scratch (the local data store). Allocated
	// once per group with the size requested at launch.
	LDS []float64

	// counters are the worker's own totals.
	counters Counters
}

// Tally accumulates work into the worker's counters. Tiled kernels
// usually tally once per phase per group.
func (g *Group) Tally(c Counters) { g.counters.Add(c) }

// GlobalID returns the global index of local item l in this group.
func (g *Group) GlobalID(l int) int { return g.ID*g.Size + l }

// Phase is one barrier-delimited region of a tiled kernel. The executor
// calls it for every local index 0..Size-1 of a group; all calls of phase k
// finish before any call of phase k+1 begins (barrier semantics).
type Phase func(g *Group, local int)

// Result of a functional launch.
type Result struct {
	// Items is the number of work items executed.
	Items int
	// Groups is the number of work groups (1 per item set for Run).
	Groups int
	// Counters holds launch-total work.
	Counters Counters
}

// workers returns the parallelism for functional execution.
func workers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes a simple kernel for global work items [0, global).
// It panics for non-positive sizes — launch geometry is programmer error,
// mirroring CL_INVALID_WORK_DIMENSION.
func Run(global int, kernel func(*WorkItem)) Result {
	if global <= 0 {
		panic(fmt.Sprintf("exec: invalid global size %d", global))
	}
	nw := workers()
	shards := make([]Counters, nw)
	var wg sync.WaitGroup
	chunk := (global + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > global {
			hi = global
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			item := WorkItem{end: hi}
			for item.Global = lo; item.Global < hi; item.Global++ {
				kernel(&item)
			}
			shards[w] = item.counters
		}(w, lo, hi)
	}
	wg.Wait()

	var total Counters
	for i := range shards {
		total.Add(shards[i])
	}
	return Result{Items: global, Groups: 1, Counters: total}
}

// RunTiled executes a tiled kernel: groups of `local` items each, with
// ldsFloats float64 scratch words per group, running the given phases with
// barrier semantics between them. global must be a multiple of local
// (OpenCL's uniform work-group requirement).
func RunTiled(global, local, ldsFloats int, phases ...Phase) Result {
	switch {
	case global <= 0 || local <= 0:
		panic(fmt.Sprintf("exec: invalid sizes global=%d local=%d", global, local))
	case global%local != 0:
		panic(fmt.Sprintf("exec: global %d not a multiple of local %d", global, local))
	case ldsFloats < 0:
		panic(fmt.Sprintf("exec: negative LDS size %d", ldsFloats))
	case len(phases) == 0:
		panic("exec: tiled kernel needs at least one phase")
	}
	groups := global / local
	nw := workers()
	if nw > groups {
		nw = groups
	}
	shards := make([]Counters, nw)
	var wg sync.WaitGroup
	chunk := (groups + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > groups {
			hi = groups
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			g := Group{Size: local}
			if ldsFloats > 0 {
				g.LDS = make([]float64, ldsFloats)
			}
			for id := lo; id < hi; id++ {
				g.ID = id
				for _, phase := range phases {
					for l := 0; l < local; l++ {
						phase(&g, l)
					}
				}
			}
			shards[w] = g.counters
		}(w, lo, hi)
	}
	wg.Wait()

	var total Counters
	for i := range shards {
		total.Add(shards[i])
	}
	return Result{Items: global, Groups: groups, Counters: total}
}
