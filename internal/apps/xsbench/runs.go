package xsbench

import (
	"math"
	"runtime"
	"sync"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/cppamp"
	"hetbench/internal/models/hc"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/models/openacc"
	"hetbench/internal/models/opencl"
	"hetbench/internal/models/openmp"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
)

// lookupsPerItem batches queries per work item so functional execution of
// paper-scale lookup counts stays tractable while the modeled work is
// charged per lookup.
const lookupsPerItem = 8

// blockItems is the number of work items whose lookups run as one
// energy-ordered block: 65,536 lookups.
const blockItems = 8192

// energyBuckets is the number of energy ranges a block's lookups are
// counting-sorted into: the top 12 bits of the energy.
const energyBuckets = 1 << 12

// execute is the functional pass: one launch of the lookup kernel, in
// which each work item performs lookupsPerItem queries, accumulates a
// verification sum and tallies the binary-search probes and nuclide
// gathers it actually performed. The digest is the sum over items. The
// lookups run before the launch, in energy order (lookupAll); the launch
// body tallies each item's work in item order.
func (p *Problem) execute(rec *appcore.Recorder) float64 {
	p.data()
	partial, visited := p.lookupAll()
	rec.Launch(0, p.items(), true, p.tally(visited))
	return p.checksum(partial)
}

// tally is the lookup kernel's body: item i tallies the work of its
// lookups, which visited visited[i] nuclides.
func (p *Problem) tally(visited []uint16) func(*exec.WorkItem) {
	logUnion := math.Log2(float64(len(p.UnionEnergy)))
	logNuclide := math.Log2(float64(p.Cfg.GridPoints))
	return func(w *exec.WorkItem) {
		visited := float64(visited[w.Global])
		// Work: binary-search probes + per-nuclide gathers and
		// 5-channel interpolation. The unionized structure searches
		// once per lookup and reads an index pointer per nuclide; the
		// nuclide-grid structure searches once per nuclide visited.
		var probes, idxBytes float64
		if p.Cfg.Grid == UnionizedGrid {
			probes = float64(lookupsPerItem) * logUnion
			idxBytes = visited * 4
		} else {
			probes = visited * logNuclide
		}
		flops := visited * (4 + 3*NumXS)
		for _, prec := range appcore.Precisions {
			elt := appcore.EltBytes(prec)
			sp, dp := appcore.Flops(prec, flops)
			w.Tally(appcore.View(prec, 0, 1), exec.Counters{
				SPFlops: sp, DPFlops: dp,
				LoadBytes:  probes*elt + idxBytes + visited*2*(1+NumXS)*elt,
				StoreBytes: elt,
				Instrs:     probes*6 + visited*30,
			})
		}
	}
}

// lookupAll runs every item's lookups. It returns each item's sum of the
// total cross section over its lookups, added in lookup order, and the
// number of nuclides its lookups visited. Each lookup computes channel 0
// alone (lookupTotalXS), the one channel the sum reads. Items run in
// blocks of blockItems, each block's lookups in energy order, so that
// neighbouring lookups search and gather neighbouring grid points. A
// lookup is a pure function of its query, so the order never reaches a
// result. The blocks run on GOMAXPROCS workers, and each block writes
// only its own items.
func (p *Problem) lookupAll() (partial []float64, visited []uint16) {
	items := p.items()
	partial, visited = make([]float64, items), make([]uint16, items)
	blocks := (items + blockItems - 1) / blockItems
	workers := min(runtime.GOMAXPROCS(0), blocks)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s blockScratch
			for b := w; b < blocks; b += workers {
				lo := b * blockItems
				hi := min(lo+blockItems, items)
				p.lookupBlock(&s, lo, partial[lo:hi], visited[lo:hi])
			}
		}()
	}
	wg.Wait()
	return partial, visited
}

// blockScratch is one worker's buffers for lookupBlock.
type blockScratch struct {
	start [energyBuckets]int32
	// order lists the block's lookups in energy order; total holds
	// each lookup's total cross section, in lookup order.
	order []int32
	total []float64
}

// lookupBlock runs the lookups of the items from lo on, one per entry of
// partial and visited, in energy order: a counting sort on the energy's
// top bits, stable in lookup order. visited must hold zeros.
func (p *Problem) lookupBlock(s *blockScratch, lo int, partial []float64, visited []uint16) {
	first := lo * lookupsPerItem
	n := len(partial) * lookupsPerItem
	if cap(s.order) < n {
		s.order, s.total = make([]int32, n), make([]float64, n)
	}
	order, total := s.order[:n], s.total[:n]
	bucket := func(j int) int {
		energy, _ := p.lookupInputs(first + j)
		return int(energy * energyBuckets)
	}
	clear(s.start[:])
	for j := range n {
		s.start[bucket(j)]++
	}
	at := int32(0)
	for k, c := range s.start {
		s.start[k] = at
		at += c
	}
	for j := range n {
		k := bucket(j)
		order[s.start[k]] = int32(j)
		s.start[k]++
	}
	for _, j := range order {
		energy, mat := p.lookupInputs(first + int(j))
		t, v := p.lookupTotalXS(energy, mat)
		visited[j/lookupsPerItem] += uint16(v)
		total[j] = t
	}
	for i := range partial {
		sum := 0.0
		for _, t := range total[i*lookupsPerItem : (i+1)*lookupsPerItem] {
			sum += t
		}
		partial[i] = sum
	}
}

func (p *Problem) items() int {
	return (p.Cfg.Lookups + lookupsPerItem - 1) / lookupsPerItem
}

func (p *Problem) checksum(partial []float64) float64 {
	s := 0.0
	for _, v := range partial {
		s += v
	}
	return s
}

// runKey keys the functional pass in a run memo: every model runs the
// same lookups in every precision, so the data set's config is all it
// reads.
type runKey struct{ cfg Config }

// play books the run's one launch through launch and returns the checksum
// (see appcore.Play).
func (p *Problem) play(core *modelapi.Runtime, launch func(n int, per exec.Counters)) float64 {
	return appcore.Play(p.Memo, runKey{p.Cfg}, appcore.View(p.Precision, 0, 1), core, appcore.Pricer{
		Launch: func(_, n int, per exec.Counters) { launch(n, per) },
	}, p.execute)
}

// runOpenMP is the CPU baseline.
func (p *Problem) runOpenMP(m *sim.Machine) appcore.Result {
	rt := openmp.New(m)
	spec := p.Specs(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, n, per) })
	return appcore.NewResult(m, AppName, modelapi.OpenMP, p.Precision, sum, 1)
}

// runOpenCL stages the lookup table once (the dominant transfer on the
// discrete GPU: 240 MB for `-s small`), launches the kernel, and reads
// back only the small result vector — the explicit-staging advantage.
func (p *Problem) runOpenCL(m *sim.Machine) appcore.Result {
	ctx := opencl.NewContext(m)
	q := ctx.NewQueue()
	table := ctx.CreateBuffer("xs.table", p.Cfg.TableBytes(p.Precision))
	results := ctx.CreateBuffer("xs.results", int64(p.items())*int64(appcore.EltBytes(p.Precision)))
	q.EnqueueWriteBuffer(table)
	spec := p.Specs(m)
	sum := p.play(ctx.Runtime, func(n int, per exec.Counters) { q.Launch(spec, n, per) })
	q.EnqueueReadBuffer(results)
	q.Finish()
	return appcore.NewResult(m, AppName, modelapi.OpenCL, p.Precision, sum, 1)
}

// runCppAMP wraps the table in an array_view. CLAMP v0.6 performs no
// read-only analysis, so when the host touches results after the kernel,
// the destructor-time synchronization drags the whole (conservatively
// "written") table back across PCIe too — the mechanism behind OpenCL's
// "improvement of up to 2× over the other programming models" here.
func (p *Problem) runCppAMP(m *sim.Machine) appcore.Result {
	rt := cppamp.New(m)
	table := rt.NewArrayView("xs.table", p.Cfg.TableBytes(p.Precision))
	results := rt.NewArrayView("xs.results", int64(p.items())*int64(appcore.EltBytes(p.Precision)))
	views := []*cppamp.ArrayView{table, results}
	spec := p.Specs(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, cppamp.NewExtent(n), views, per) })
	// Host reads results → every captured view synchronizes.
	for _, v := range views {
		v.Synchronize()
	}
	return appcore.NewResult(m, AppName, modelapi.CppAMP, p.Precision, sum, 1)
}

// runOpenACC uses a data region with copyin for the table (the hand-tuned
// directive form); the gap to OpenCL on the dGPU is the code generator's
// poor handling of the irregular gather loop.
func (p *Problem) runOpenACC(m *sim.Machine) appcore.Result {
	rt := openacc.New(m)
	region := rt.Data(
		openacc.Copyin("xs.table", p.Cfg.TableBytes(p.Precision)),
		openacc.Copyout("xs.results", int64(p.items())*int64(appcore.EltBytes(p.Precision))),
	)
	spec := p.Specs(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, n, nil, per) })
	region.End()
	return appcore.NewResult(m, AppName, modelapi.OpenACC, p.Precision, sum, 1)
}

// runHC runs the Section VII Heterogeneous Compute model: single-source
// kernel plus an *asynchronous* table upload that overlaps the lookup
// kernel ("asynchronous kernel launches which help in overlapping kernel
// execution with data-transfers, resulting in further speedup").
func (p *Problem) runHC(m *sim.Machine) appcore.Result {
	rt := hc.New(m)
	rt.CopyAsync("xs.table", p.Cfg.TableBytes(p.Precision))
	spec := p.Specs(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, n, per) })
	rt.Wait()
	rt.CopyBack("xs.results", int64(p.items())*int64(appcore.EltBytes(p.Precision)))
	return appcore.NewResult(m, AppName, modelapi.HC, p.Precision, sum, 1)
}

// ports are the models Run dispatches to.
var ports = map[modelapi.Name]func(*Problem, *sim.Machine) appcore.Result{
	modelapi.OpenMP:  (*Problem).runOpenMP,
	modelapi.OpenCL:  (*Problem).runOpenCL,
	modelapi.CppAMP:  (*Problem).runCppAMP,
	modelapi.OpenACC: (*Problem).runOpenACC,
	modelapi.HC:      (*Problem).runHC,
}

// Run runs XSBench under model on m inside one run span (see appcore.Run).
func (p *Problem) Run(m *sim.Machine, model modelapi.Name) appcore.Result {
	return appcore.Run(m, AppName, model, p, ports)
}
