package minife

import (
	"fmt"
	"math"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/cppamp"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/models/openacc"
	"hetbench/internal/models/opencl"
	"hetbench/internal/models/openmp"
	"hetbench/internal/sim"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// AppName identifies miniFE in results.
const AppName = "miniFE"

// dotBlock is the per-work-item reduction block for dot products.
const dotBlock = 256

// Kernel names (Table I: 3 kernels).
const (
	KSpMV = "matvec"
	KAxpy = "waxpby"
	KDot  = "dot"
)

// The kernels as a run's specs index them.
const (
	kSpMV = iota
	kAxpy
	kDot
)

// Coalescing constants for the two SpMV strategies. CSR-Adaptive reads
// row data in coalesced blocks (Greathouse & Daga, SC'14 — reference [15]
// of the paper); the scalar row-per-thread CSR that directive compilers
// generate wastes most of each memory transaction on lane-divergent row
// walks ("specialized sparse matrix operations cannot be easily expressed
// at a high level", Section VI-A).
const (
	coalesceAdaptive = 0.95
	coalesceScalar   = 0.35
)

// Problem is a miniFE system ready to solve under any model, built by
// NewProblem or as a literal with Cfg and Precision (and Memo) set. It
// holds no matrix: the functional pass applies A matrix-free, and
// pricing and characterization model the stored CSR.
type Problem struct {
	Cfg       Config
	Precision timing.Precision
	// Memo, when set, shares the characterization with every problem of
	// the same Cfg and Precision in the run, and the functional pass with
	// every problem of the same Cfg; nil computes on every call.
	Memo *appcore.Memo
}

// NewProblem validates cfg and returns its problem at prec.
func NewProblem(cfg Config, prec timing.Precision) *Problem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Problem{Cfg: cfg, Precision: prec}
}

// SolveResult captures the solver outcome alongside the timing result.
type SolveResult struct {
	appcore.Result
	Iterations int
	Residual   float64
}

// charKey keys the characterization in a run memo: the stencil, the
// element size and the LLC geometry (stream count included) are
// everything the traces depend on.
type charKey struct {
	cfg  Config
	prec timing.Precision
	geom appcore.Geometry
}

// characterization is the measured LLC behaviour of the solver's kernels
// on one device: the SpMV trace replay (miss rate and per-access miss
// rate) and the vector-stream replay shared by axpy and dot.
type characterization struct {
	spmvMiss, spmvAccessMiss float64
	vecMiss, vecCoalesce     float64
}

// characterize returns the characterization on the machine's
// accelerator, measured once per run memo.
func (p *Problem) characterize(m *sim.Machine) characterization {
	dev := m.Accelerator()
	key := charKey{p.Cfg, p.Precision, appcore.GeometryOf(dev)}
	return appcore.Memoize(p.Memo, key, func() characterization { return p.measure(dev) })
}

func (p *Problem) measure(dev *device.Device) (c characterization) {
	elt := uint64(appcore.EltBytes(p.Precision))
	streams := appcore.Streams(dev)

	// SpMV trace: interleaved CSR row walks (val/col streams) plus
	// x-vector gathers through the stencil's columns.
	rows := p.Cfg.NumRows()
	perStream := rows / streams
	if perStream == 0 {
		perStream = 1
	}
	valBase := uint64(0)
	colBase := uint64(1) << 33
	xBase := uint64(1) << 34
	c.spmvMiss, _, c.spmvAccessMiss = appcore.Traits(dev, int(elt), func(touch func(uint64)) {
		cols := make([]int32, 0, 27)
		for step, n := 0, 0; step < perStream && n < 1<<19; step++ {
			for w := 0; w < streams; w++ {
				r := w*perStream + step
				if r >= rows {
					continue
				}
				i := uint64(p.Cfg.rowStart(r))
				x, y, z := p.Cfg.coords(r)
				cols = p.Cfg.appendRow(cols[:0], x, y, z)
				for _, col := range cols {
					touch(valBase + i*elt)
					touch(colBase + i*4)
					touch(xBase + uint64(col)*elt)
					i++
				}
				n += 3 * len(cols)
			}
		}
	})

	c.vecMiss, c.vecCoalesce, _ = appcore.Traits(dev, int(elt), func(touch func(uint64)) {
		for i := uint64(0); i < 1<<15; i++ {
			touch(i * elt)
		}
	})
	return c
}

// specs builds kernel specs, indexed by kernel, with traits measured on
// the machine; adaptive selects the CSR-Adaptive SpMV (OpenCL/C++ AMP)
// versus the scalar row-per-thread form (OpenACC, OpenMP host loop). The
// traces do not depend on adaptive, so both forms share one
// characterization.
func (p *Problem) specs(m *sim.Machine, adaptive bool) *[3]modelapi.KernelSpec {
	c := p.characterize(m)
	spmv := modelapi.KernelSpec{Name: KSpMV, MissRate: c.spmvMiss}
	if adaptive {
		spmv.Class, spmv.Coalesce = modelapi.Regular, coalesceAdaptive
	} else {
		spmv.Class, spmv.Coalesce = modelapi.Irregular, coalesceScalar
	}
	return &[3]modelapi.KernelSpec{
		kSpMV: spmv,
		kAxpy: {Name: KAxpy, Class: modelapi.Streaming, MissRate: c.vecMiss, Coalesce: c.vecCoalesce},
		kDot:  {Name: KDot, Class: modelapi.Streaming, MissRate: c.vecMiss, Coalesce: c.vecCoalesce},
	}
}

// MeasuredMissRate reports the SpMV per-access LLC miss rate (Table I: 39%).
func (p *Problem) MeasuredMissRate(m *sim.Machine) float64 {
	return p.characterize(m).spmvAccessMiss
}

// spmvForm selects the SpMV tally form: CSR-Adaptive with LDS staging
// (OpenCL/C++ AMP), the lane-divergent scalar row walk a directive
// compiler emits on a GPU (OpenACC), or the plain host row loop (OpenMP).
type spmvForm int

const (
	spmvAdaptive spmvForm = iota
	spmvScalarGPU
	spmvHost
	spmvForms
)

// view is the pricing view of a solve at prec with the SpMV in form.
func view(prec timing.Precision, form spmvForm) int {
	return appcore.View(prec, int(form), int(spmvForms))
}

// solution is the functional pass's digest of a CG solve.
type solution struct {
	iters    int
	residual float64 // final residual norm
	sum      float64 // x checksum
}

// runKey keys the functional pass in a run memo: the system is all it
// reads, since every precision and SpMV form is a view of one solve.
type runKey struct{ cfg Config }

// play books the solve through the model driver d, in the view of the
// Problem's precision and the SpMV form (see appcore.Play). d's Transfer
// prices the per-iteration readback of dot partials.
func (p *Problem) play(core *modelapi.Runtime, d appcore.Pricer, form spmvForm) solution {
	return appcore.Play(p.Memo, runKey{p.Cfg}, view(p.Precision, form), core, d, p.solve)
}

// spmvTally is the work of an SpMV row with nnz stored entries in every
// precision and form.
func spmvTally(nnz float64) (per exec.Views) {
	for _, prec := range appcore.Precisions {
		elt := appcore.EltBytes(prec)
		sp, dp := appcore.Flops(prec, 2*nnz)
		loads := 8 + nnz*(4+2*elt) // rowptr + cols + vals + x gathers
		for form := range spmvForms {
			instrs := 4 * nnz
			var lds float64
			switch form {
			case spmvAdaptive:
				lds = nnz * elt // row block staged via LDS
				instrs = 3 * nnz
			case spmvScalarGPU:
				instrs = 8 * nnz // lane-divergent row walk replays
			case spmvHost:
				// plain prefetched row loop: no divergence, no LDS
			}
			per[view(prec, form)] = exec.Counters{SPFlops: sp, DPFlops: dp, LoadBytes: loads, StoreBytes: elt, LDSBytes: lds, Instrs: instrs}
		}
	}
	return per
}

// spmv is the SpMV kernel ap = A·p, tallied by row class: a row's work
// depends on its stored entry count alone.
func (o *operator) spmv(ap, p []float64) func(*exec.WorkItem) {
	per := make([]exec.Views, o.t.NumRows())
	for k := range per {
		per[k] = spmvTally(float64(o.start[k+1] - o.start[k]))
	}
	return exec.Classed(per, func(r int) int {
		s, class := o.mulRow(r, p)
		ap[r] = s
		return class
	})
}

// solve is the functional pass: CG with the matrix-free operator,
// tallying the SpMV in every precision and form. The leading
// FunctionalIters iterations execute the kernels; the rest replay
// measured kernel costs.
func (p *Problem) solve(rec *appcore.Recorder) solution {
	op := newOperator(p.Cfg)
	n := p.Cfg.NumRows()
	nPart := (n + dotBlock - 1) / dotBlock

	x := make([]float64, n)
	r := make([]float64, n)
	pv := make([]float64, n)
	ap := make([]float64, n)
	partial := make([]float64, nPart)

	for i := range r {
		r[i] = source(i) // x0 = 0 → r = b
	}
	copy(pv, r)

	hostSum := func() float64 {
		s := 0.0
		for _, v := range partial {
			s += v
		}
		return s
	}

	spmv := op.spmv(ap, pv)
	// Every dot block (a short last one included) and every axpy item
	// is charged the same work, so those kernels are Uniform.
	dotPer := appcore.PerView(int(spmvForms), func(prec timing.Precision) exec.Counters {
		elt := appcore.EltBytes(prec)
		per := exec.Counters{LoadBytes: 2 * dotBlock * elt, StoreBytes: elt, Instrs: 3 * dotBlock}
		per.SPFlops, per.DPFlops = appcore.Flops(prec, 2*dotBlock)
		return per
	})
	dotBody := func(v1, v2 []float64) func(*exec.WorkItem) {
		return exec.Uniform(dotPer, func(b int) {
			lo := b * dotBlock
			hi := lo + dotBlock
			if hi > n {
				hi = n
			}
			s := 0.0
			for i := lo; i < hi; i++ {
				s += v1[i] * v2[i]
			}
			partial[b] = s
		})
	}
	axpyPer := appcore.PerView(int(spmvForms), func(prec timing.Precision) exec.Counters {
		elt := appcore.EltBytes(prec)
		per := exec.Counters{LoadBytes: 2 * elt, StoreBytes: elt, Instrs: 6}
		per.SPFlops, per.DPFlops = appcore.Flops(prec, 2)
		return per
	})
	axpyBody := func(f func(i int)) func(*exec.WorkItem) { return exec.Uniform(axpyPer, f) }

	fn := p.Cfg.functionalIters()

	// Initial rr.
	rec.Launch(kDot, nPart, true, dotBody(r, r))
	rec.Transfer()
	rr := hostSum()
	rr0 := rr

	iters := 0
	converged := false
	for it := 0; it < p.Cfg.MaxIters && !converged; it++ {
		functional := it < fn
		iters++
		rec.Iteration(func() {
			rec.Launch(kSpMV, n, functional, spmv)
			rec.Launch(kDot, nPart, functional, dotBody(pv, ap))
			rec.Transfer()
			pap := hostSum()
			if pap == 0 {
				converged = true
				return
			}
			alpha := rr / pap

			rec.Launch(kAxpy, n, functional, axpyBody(func(i int) { x[i] += alpha * pv[i] }))
			rec.Launch(kAxpy, n, functional, axpyBody(func(i int) { r[i] -= alpha * ap[i] }))

			rec.Launch(kDot, nPart, functional, dotBody(r, r))
			rec.Transfer()
			rrNew := hostSum()

			if functional && p.Cfg.Tol > 0 && math.Sqrt(rrNew) <= p.Cfg.Tol*math.Sqrt(rr0) {
				rr = rrNew
				converged = true
				return
			}
			beta := rrNew / rr
			rr = rrNew
			rec.Launch(kAxpy, n, functional, axpyBody(func(i int) { pv[i] = r[i] + beta*pv[i] }))
		})
	}

	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return solution{iters, math.Sqrt(rr), sum}
}

func (p *Problem) result(m *sim.Machine, model modelapi.Name, s solution) SolveResult {
	return SolveResult{
		Result: appcore.Result{
			App: AppName, Model: model, Machine: m.Name(), Precision: p.Precision,
			ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
			Checksum: s.sum, Kernels: 3,
		},
		Iterations: s.iters,
		Residual:   s.residual,
	}
}

// matrixBytes returns the device footprint of the modeled CSR and of the
// solver's vectors.
func (p *Problem) matrixBytes() (mat, vecs int64) {
	elt := int64(appcore.EltBytes(p.Precision))
	rows := int64(p.Cfg.NumRows())
	mat = int64(p.Cfg.NNZ())*(4+elt) + (rows+1)*4
	vecs = 4 * rows * elt // x, r, p, Ap
	return mat, vecs
}

func (p *Problem) partialsBytes() int64 {
	nPart := int64((p.Cfg.NumRows() + dotBlock - 1) / dotBlock)
	return nPart * int64(appcore.EltBytes(p.Precision))
}

// RunOpenMP is the CPU baseline. The host row loop streams each row's
// data through hardware prefetchers, so it takes the well-coalesced spec
// (the GPU lane-divergence waste of scalar CSR does not apply to a CPU)
// with the flat tally form.
func (p *Problem) RunOpenMP(m *sim.Machine) SolveResult {
	m.ResetClock()
	rt := openmp.New(m)
	specs := p.specs(m, true)
	s := p.play(rt.Runtime, appcore.Pricer{
		Launch: func(k, n int, per exec.Counters) { rt.Launch(specs[k], n, per) },
	}, spmvHost)
	return p.result(m, modelapi.OpenMP, s)
}

// RunOpenCL uses the CSR-Adaptive SpMV with explicit staging.
func (p *Problem) RunOpenCL(m *sim.Machine) SolveResult {
	m.ResetClock()
	ctx := opencl.NewContext(m).WithCoexec()
	q := ctx.NewQueue()
	mat, vecs := p.matrixBytes()
	q.EnqueueWriteBuffer(ctx.CreateBuffer("minife.matrix", mat))
	q.EnqueueWriteBuffer(ctx.CreateBuffer("minife.vectors", vecs))
	partials := ctx.CreateBuffer("minife.partials", p.partialsBytes())
	specs := p.specs(m, true)
	s := p.play(ctx.Runtime, appcore.Pricer{
		Launch:   func(k, n int, per exec.Counters) { q.Launch(specs[k], n, per) },
		Transfer: func() { q.EnqueueReadBuffer(partials) },
	}, spmvAdaptive)
	elt := int64(appcore.EltBytes(p.Precision))
	q.EnqueueReadBuffer(ctx.CreateBuffer("minife.x", int64(p.Cfg.NumRows())*elt))
	q.Finish()
	return p.result(m, modelapi.OpenCL, s)
}

// RunCppAMP uses tiled CSR-Adaptive via tile_static staging.
func (p *Problem) RunCppAMP(m *sim.Machine) SolveResult {
	m.ResetClock()
	rt := cppamp.New(m).WithCoexec()
	mat, vecs := p.matrixBytes()
	views := []*cppamp.ArrayView{
		rt.NewArrayView("minife.matrix", mat),
		rt.NewArrayView("minife.vectors", vecs),
		rt.NewArrayView("minife.partials", p.partialsBytes()),
	}
	specs := p.specs(m, true)
	s := p.play(rt.Runtime, appcore.Pricer{
		Launch:   func(k, n int, per exec.Counters) { rt.Launch(specs[k], cppamp.NewExtent(n), views, per) },
		Transfer: func() { views[2].Synchronize() },
	}, spmvAdaptive)
	for _, v := range views {
		v.Synchronize()
	}
	return p.result(m, modelapi.CppAMP, s)
}

// RunOpenACC uses a data region; the compiler generates scalar
// row-per-thread CSR ("the compiler is unable to recognize and take
// advantage of the complicated memory access patterns") — the paper's
// explanation for the OpenACC slowdown on miniFE.
func (p *Problem) RunOpenACC(m *sim.Machine) SolveResult {
	m.ResetClock()
	rt := openacc.New(m).WithCoexec()
	mat, vecs := p.matrixBytes()
	partials := openacc.Create("minife.partials", p.partialsBytes())
	region := rt.Data(
		openacc.Copyin("minife.matrix", mat),
		openacc.Copy("minife.vectors", vecs),
		partials,
	)
	specs := p.specs(m, false)
	s := p.play(rt.Runtime, appcore.Pricer{
		Launch:   func(k, n int, per exec.Counters) { rt.Launch(specs[k], n, nil, per) },
		Transfer: func() { rt.UpdateHost(partials.Name, partials.Bytes) },
	}, spmvScalarGPU)
	region.End()
	return p.result(m, modelapi.OpenACC, s)
}

// RunOpenACCConservative runs the CG solve without the hand-placed data
// region — the PGI-era default the paper describes in Section III-B:
// every kernels region conservatively copies its arrays in and out
// (the motivation for the data directive; kept for the ablation).
func (p *Problem) RunOpenACCConservative(m *sim.Machine) SolveResult {
	m.ResetClock()
	rt := openacc.New(m)
	mat, vecs := p.matrixBytes()
	matrix := openacc.Copyin("minife.matrix", mat)
	vectors := openacc.Copy("minife.vectors", vecs)
	partials := openacc.Copyout("minife.partials", p.partialsBytes())
	specs := p.specs(m, false)
	s := p.play(rt.Runtime, appcore.Pricer{
		Launch: func(k, n int, per exec.Counters) {
			uses := []openacc.Clause{vectors}
			switch k {
			case kSpMV:
				uses = append(uses, matrix)
			case kDot:
				uses = append(uses, partials)
			}
			rt.Launch(specs[k], n, uses, per)
		},
		Transfer: func() { rt.UpdateHost(partials.Name, partials.Bytes) },
	}, spmvScalarGPU)
	return p.result(m, modelapi.OpenACC, s)
}

// Run dispatches by model name.
func (p *Problem) Run(m *sim.Machine, model modelapi.Name) (r SolveResult) {
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
			panic(fmt.Sprintf("minife: no implementation for %s", model))
		}
	})
	return r
}
