// Package exec is the functional execution engine of the simulator: it
// really runs kernel bodies (as Go closures) over an OpenCL-style NDRange,
// in parallel across host cores, while accumulating the operation counters
// (flops, bytes, local-data-store bytes, instructions) that the timing
// model converts into simulated device time.
//
// A kernel is one function per work item (Run, Measure). There are no
// work-groups, barriers or local-data-store emulation: a tiled kernel
// (CoMD's force loop) runs as a per-item body that tallies the LDS
// traffic its tile staging causes on the device, which the timing model
// prices.
//
// Each worker goroutine owns the counters it tallies into: they live in
// its WorkItem, are written to the worker's slot of the launch once when
// its chunk is done, and are merged in worker order after all workers
// finish. Kernels therefore tally without atomics, and no two
// workers write the same cache line while they run.
//
// A launch tallies one Counters per pricing view (Views): the body
// observes its work once (neighbours visited, probes, row lengths) and
// tallies what that work costs under each view it may be priced in, such
// as a precision crossed with an app's tally form. Each view keeps its
// own totals in the same item and worker order, so a view's totals are
// bit for bit those of a launch that tallied that view alone.
//
// A kernel whose per-item work depends on the data only through the
// item's class (miniFE's SpMV rows) is built with Classed, which charges
// each class's work once per worker chunk instead of once per item;
// Uniform is its one-class case. The apps charge only integers below
// 2^53 this way, so per × n equals the n-term sum bit for bit and the
// chunking (and so GOMAXPROCS) never reaches the totals.
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

// MaxViews bounds the pricing views one launch tallies: miniFE's two
// precisions × three SpMV forms.
const MaxViews = 6

// Views holds a launch's counters once per pricing view; a kernel with
// one view tallies view 0.
type Views [MaxViews]Counters

// WorkItem is the per-item context handed to kernels. One
// WorkItem serves a worker's whole chunk of items.
type WorkItem struct {
	// Global is the work item's global index. Kernels read it; only
	// Classed moves it, to the end of its chunk.
	Global int
	// end bounds the worker's chunk: items [Global, end) remain.
	end int
	// counters are the worker's own totals, per view.
	counters Views
}

// Tally accumulates this item's work under view v into the worker's
// counters.
func (w *WorkItem) Tally(v int, c Counters) { w.counters[v].Add(c) }

// MaxClasses bounds the item classes of a Classed kernel: miniFE's 27
// SpMV row classes.
const MaxClasses = 27

// Classed builds a kernel whose items each do one of a few fixed amounts
// of work: body(i) runs once for each global index i and returns the
// item's class k (below MaxClasses), and per[k] is charged once per
// worker chunk as per[k] × (items of class k in the chunk). A tally that
// depends on the data in any other way belongs in a per-item Tally. The
// kernel must be launched by Run itself, not called from another kernel:
// each call runs the rest of its chunk.
func Classed(per []Views, body func(i int) int) func(*WorkItem) {
	return func(w *WorkItem) {
		var count [MaxClasses]int
		for i := w.Global; i < w.end; i++ {
			count[body(i)]++
		}
		for k, n := range count {
			if n > 0 {
				for v := range per[k] {
					w.counters[v].Add(per[k][v].scaled(float64(n)))
				}
			}
		}
		w.Global = w.end - 1 // Run's increment then ends the chunk
	}
}

// Uniform builds a kernel whose every item does the same work, charging
// per once per worker chunk: Classed with one class.
func Uniform(per Views, body func(i int)) func(*WorkItem) {
	return Classed([]Views{per}, func(i int) int { body(i); return 0 })
}

// workers returns the parallelism for functional execution.
func workers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes a kernel for global work items [0, global) and returns the
// launch-total counters of every view. It panics for non-positive
// sizes — launch geometry is programmer error, mirroring
// CL_INVALID_WORK_DIMENSION.
func Run(global int, kernel func(*WorkItem)) Views {
	if global <= 0 {
		panic(fmt.Sprintf("exec: invalid global size %d", global))
	}
	nw := workers()
	shards := make([]Views, nw)
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

	var total Views
	for i := range shards {
		for v := range total {
			total[v].Add(shards[i][v])
		}
	}
	return total
}

// Measure runs a kernel over global work items and returns its
// per-item counters in every view: the measurement a runtime prices a
// launch from.
func Measure(global int, kernel func(*WorkItem)) Views {
	total := Run(global, kernel)
	for v := range total {
		total[v] = total[v].PerItem(global)
	}
	return total
}
