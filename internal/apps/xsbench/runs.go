package xsbench

import (
	"fmt"
	"math"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/cppamp"
	"hetbench/internal/models/hc"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/models/openacc"
	"hetbench/internal/models/opencl"
	"hetbench/internal/models/openmp"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// lookupsPerItem batches queries per work item so functional execution of
// paper-scale lookup counts stays tractable while the modeled work is
// charged per lookup.
const lookupsPerItem = 8

// execute is the functional pass: one launch of the lookup kernel, in
// which each work item performs lookupsPerItem queries, accumulates a
// verification sum and tallies the binary-search probes and nuclide
// gathers it actually performed. The digest is the sum over items.
func (p *Problem) execute(rec *appcore.Recorder) float64 {
	p.data()
	partial := make([]float64, p.items())
	elt := appcore.EltBytes(p.Precision)
	logUnion := math.Log2(float64(len(p.UnionEnergy)))
	logNuclide := math.Log2(float64(p.Cfg.GridPoints))
	rec.Launch(0, p.items(), true, func(w *exec.WorkItem) {
		var out [NumXS]float64
		sum := 0.0
		visited := 0
		for k := 0; k < lookupsPerItem; k++ {
			i := w.Global*lookupsPerItem + k
			energy, mat := p.lookupInputs(i)
			visited += p.LookupMacroXS(energy, mat, &out)
			sum += out[0]
		}
		partial[w.Global] = sum
		// Work: binary-search probes + per-nuclide gathers and
		// 5-channel interpolation. The unionized structure searches
		// once per lookup and reads an index pointer per nuclide; the
		// nuclide-grid structure searches once per nuclide visited.
		var probes, idxBytes float64
		if p.Cfg.Grid == UnionizedGrid {
			probes = float64(lookupsPerItem) * logUnion
			idxBytes = float64(visited) * 4
		} else {
			probes = float64(visited) * logNuclide
		}
		flops := float64(visited) * (4 + 3*NumXS)
		sp, dp := appcore.Flops(p.Precision, flops)
		w.Tally(exec.Counters{
			SPFlops: sp, DPFlops: dp,
			LoadBytes:  probes*elt + idxBytes + float64(visited)*2*(1+NumXS)*elt,
			StoreBytes: elt,
			Instrs:     probes*6 + float64(visited)*30,
		})
	})
	return p.checksum(partial)
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
// same lookups, so the data set's config and precision are all it reads.
type runKey struct {
	cfg  Config
	prec timing.Precision
}

// play books the run's one launch through launch and returns the checksum
// (see appcore.Play).
func (p *Problem) play(core *modelapi.Runtime, launch func(n int, per exec.Counters)) float64 {
	return appcore.Play(p.Memo, runKey{p.Cfg, p.Precision}, core, appcore.Pricer{
		Launch: func(_, n int, per exec.Counters) { launch(n, per) },
	}, p.execute)
}

func (p *Problem) result(m *sim.Machine, model modelapi.Name, sum float64) appcore.Result {
	return appcore.Result{
		App: AppName, Model: model, Machine: m.Name(), Precision: p.Precision,
		ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
		Checksum: sum, Kernels: 1,
	}
}

// RunOpenMP is the CPU baseline.
func (p *Problem) RunOpenMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := openmp.New(m)
	spec := p.Specs(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, n, per) })
	return p.result(m, modelapi.OpenMP, sum)
}

// RunOpenCL stages the lookup table once (the dominant transfer on the
// discrete GPU: 240 MB for `-s small`), launches the kernel, and reads
// back only the small result vector — the explicit-staging advantage.
func (p *Problem) RunOpenCL(m *sim.Machine) appcore.Result {
	m.ResetClock()
	ctx := opencl.NewContext(m)
	q := ctx.NewQueue()
	table := ctx.CreateBuffer("xs.table", p.Cfg.TableBytes(p.Precision))
	results := ctx.CreateBuffer("xs.results", int64(p.items())*int64(appcore.EltBytes(p.Precision)))
	q.EnqueueWriteBuffer(table)
	spec := p.Specs(m)
	sum := p.play(ctx.Runtime, func(n int, per exec.Counters) { q.Launch(spec, n, per) })
	q.EnqueueReadBuffer(results)
	q.Finish()
	return p.result(m, modelapi.OpenCL, sum)
}

// RunCppAMP wraps the table in an array_view. CLAMP v0.6 performs no
// read-only analysis, so when the host touches results after the kernel,
// the destructor-time synchronization drags the whole (conservatively
// "written") table back across PCIe too — the mechanism behind OpenCL's
// "improvement of up to 2× over the other programming models" here.
func (p *Problem) RunCppAMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
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
	return p.result(m, modelapi.CppAMP, sum)
}

// RunOpenACC uses a data region with copyin for the table (the hand-tuned
// directive form); the gap to OpenCL on the dGPU is the code generator's
// poor handling of the irregular gather loop.
func (p *Problem) RunOpenACC(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := openacc.New(m)
	region := rt.Data(
		openacc.Copyin("xs.table", p.Cfg.TableBytes(p.Precision)),
		openacc.Copyout("xs.results", int64(p.items())*int64(appcore.EltBytes(p.Precision))),
	)
	spec := p.Specs(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, n, nil, per) })
	region.End()
	return p.result(m, modelapi.OpenACC, sum)
}

// RunHC runs the Section VII Heterogeneous Compute model: single-source
// kernel plus an *asynchronous* table upload that overlaps the lookup
// kernel ("asynchronous kernel launches which help in overlapping kernel
// execution with data-transfers, resulting in further speedup").
func (p *Problem) RunHC(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := hc.New(m)
	rt.CopyAsync("xs.table", p.Cfg.TableBytes(p.Precision))
	spec := p.Specs(m)
	sum := p.play(rt.Runtime, func(n int, per exec.Counters) { rt.Launch(spec, n, per) })
	rt.Wait()
	rt.CopyBack("xs.results", int64(p.items())*int64(appcore.EltBytes(p.Precision)))
	return p.result(m, modelapi.HC, sum)
}

// Run dispatches by model name.
func (p *Problem) Run(m *sim.Machine, model modelapi.Name) (r appcore.Result) {
	m.ResetClock()
	m.InRun(AppName+"/"+string(model), func() {
		switch model {
		case modelapi.OpenMP:
			r = p.RunOpenMP(m)
		case modelapi.OpenCL:
			r = p.RunOpenCL(m)
		case modelapi.CppAMP:
			r = p.RunCppAMP(m)
		case modelapi.OpenACC:
			r = p.RunOpenACC(m)
		default:
			panic(fmt.Sprintf("xsbench: no implementation for %s", model))
		}
	})
	return r
}
