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

// Problem is an assembled system ready to solve under any model.
type Problem struct {
	Cfg       Config
	Precision timing.Precision
	A         *CSR
	B         []float64
	// Memo, when set, shares the characterization with every problem of
	// the same Cfg and Precision in the run; nil measures on every call.
	Memo *appcore.Memo
}

// NewProblem assembles the FE system.
func NewProblem(cfg Config, prec timing.Precision) *Problem {
	a, b := Assemble(cfg)
	return &Problem{Cfg: cfg, Precision: prec, A: a, B: b}
}

// SolveResult captures the solver outcome alongside the timing result.
type SolveResult struct {
	appcore.Result
	Iterations int
	Residual   float64
}

// charKey keys the characterization in a run memo: the matrix structure,
// the element size and the LLC geometry (stream count included) are
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
	return appcore.Characterize(p.Memo, key, func() characterization { return p.measure(dev) })
}

func (p *Problem) measure(dev *device.Device) (c characterization) {
	elt := int(appcore.EltBytes(p.Precision))
	streams := appcore.Streams(dev)

	// SpMV trace: interleaved row walks (val/col streams) plus x-vector
	// gathers through the real column structure.
	rows := p.A.NumRows
	perStream := rows / streams
	if perStream == 0 {
		perStream = 1
	}
	valBase := uint64(0)
	colBase := uint64(1) << 33
	xBase := uint64(1) << 34
	var trace []uint64
	for step := 0; step < perStream && len(trace) < 1<<19; step++ {
		for w := 0; w < streams; w++ {
			r := w*perStream + step
			if r >= rows {
				continue
			}
			for i := p.A.RowPtr[r]; i < p.A.RowPtr[r+1]; i++ {
				trace = append(trace, valBase+uint64(i)*uint64(elt))
				trace = append(trace, colBase+uint64(i)*4)
				trace = append(trace, xBase+uint64(p.A.Cols[i])*uint64(elt))
			}
		}
	}
	c.spmvMiss, _, c.spmvAccessMiss = appcore.Traits(dev, trace, elt)

	stream := make([]uint64, 1<<15)
	for i := range stream {
		stream[i] = uint64(i * elt)
	}
	c.vecMiss, c.vecCoalesce, _ = appcore.Traits(dev, stream, elt)
	return c
}

// specs builds kernel specs with traits measured on the machine;
// adaptive selects the CSR-Adaptive SpMV (OpenCL/C++ AMP) versus the
// scalar row-per-thread form (OpenACC, OpenMP host loop). The traces do
// not depend on adaptive, so both forms share one characterization.
func (p *Problem) specs(m *sim.Machine, adaptive bool) map[string]modelapi.KernelSpec {
	c := p.characterize(m)
	spmv := modelapi.KernelSpec{Name: KSpMV, MissRate: c.spmvMiss}
	if adaptive {
		spmv.Class, spmv.Coalesce = modelapi.Regular, coalesceAdaptive
	} else {
		spmv.Class, spmv.Coalesce = modelapi.Irregular, coalesceScalar
	}
	return map[string]modelapi.KernelSpec{
		KSpMV: spmv,
		KAxpy: {Name: KAxpy, Class: modelapi.Streaming, MissRate: c.vecMiss, Coalesce: c.vecCoalesce},
		KDot:  {Name: KDot, Class: modelapi.Streaming, MissRate: c.vecMiss, Coalesce: c.vecCoalesce},
	}
}

// MeasuredMissRate reports the SpMV per-access LLC miss rate (Table I: 39%).
func (p *Problem) MeasuredMissRate(m *sim.Machine) float64 {
	return p.characterize(m).spmvAccessMiss
}

// driver abstracts per-model launching plus the per-iteration readback of
// dot partials.
type driver interface {
	launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem))
	readback(bytes int64)
}

type ompDriver struct{ rt *openmp.Runtime }

func (d *ompDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	d.rt.Launch(spec, n, functional, body)
}
func (d *ompDriver) readback(int64) {}

type clDriver struct {
	q        *opencl.Queue
	partials *opencl.Buffer
}

func (d *clDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	d.q.LaunchFunc(spec, n, functional, body)
}
func (d *clDriver) readback(int64) { d.q.EnqueueReadBuffer(d.partials) }

type ampDriver struct {
	rt       *cppamp.Runtime
	views    []*cppamp.ArrayView
	partials *cppamp.ArrayView
}

func (d *ampDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	d.rt.Launch(spec, cppamp.NewExtent(n), d.views, functional, body)
}
func (d *ampDriver) readback(int64) { d.partials.Synchronize() }

type accDriver struct{ rt *openacc.Runtime }

func (d *accDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	d.rt.Launch(spec, n, nil, functional, body)
}
func (d *accDriver) readback(bytes int64) { d.rt.UpdateHost("minife.partials", bytes) }

// spmvForm selects the SpMV tally form: CSR-Adaptive with LDS staging
// (OpenCL/C++ AMP), the lane-divergent scalar row walk a directive
// compiler emits on a GPU (OpenACC), or the plain host row loop (OpenMP).
type spmvForm int

const (
	spmvAdaptive spmvForm = iota
	spmvScalarGPU
	spmvHost
)

// solve runs CG through the given driver. form picks the SpMV tally
// variant. Returns (iterations, final residual norm, x checksum).
func (p *Problem) solve(m *sim.Machine, d driver, specs map[string]modelapi.KernelSpec, form spmvForm) (int, float64, float64) {
	a := p.A
	n := a.NumRows
	elt := appcore.EltBytes(p.Precision)
	nPart := (n + dotBlock - 1) / dotBlock
	partBytes := int64(nPart) * int64(elt)

	x := make([]float64, n)
	r := make([]float64, n)
	pv := make([]float64, n)
	ap := make([]float64, n)
	partial := make([]float64, nPart)

	copy(r, p.B) // x0 = 0 → r = b
	copy(pv, r)

	hostSum := func() float64 {
		s := 0.0
		for _, v := range partial {
			s += v
		}
		return s
	}

	// Kernel bodies. avgNNZ drives the SpMV tallies.
	spmv := func(w *exec.WorkItem) {
		row := w.Global
		ap[row] = a.MulRow(row, pv)
		nnz := float64(a.RowPtr[row+1] - a.RowPtr[row])
		sp, dp := appcore.Flops(p.Precision, 2*nnz)
		loads := 8 + nnz*(4+2*elt) // rowptr + cols + vals + x gathers
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
		w.Tally(exec.Counters{SPFlops: sp, DPFlops: dp, LoadBytes: loads, StoreBytes: elt, LDSBytes: lds, Instrs: instrs})
	}
	// Every dot block (a short last one included) and every axpy item
	// is charged the same work, so those kernels are Uniform.
	dotPer := exec.Counters{LoadBytes: 2 * dotBlock * elt, StoreBytes: elt, Instrs: 3 * dotBlock}
	dotPer.SPFlops, dotPer.DPFlops = appcore.Flops(p.Precision, 2*dotBlock)
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
	axpyPer := exec.Counters{LoadBytes: 2 * elt, StoreBytes: elt, Instrs: 6}
	axpyPer.SPFlops, axpyPer.DPFlops = appcore.Flops(p.Precision, 2)
	axpyBody := func(f func(i int)) func(*exec.WorkItem) { return exec.Uniform(axpyPer, f) }

	fn := p.Cfg.functionalIters()

	// Initial rr.
	d.launch(specs[KDot], nPart, true, dotBody(r, r))
	d.readback(partBytes)
	rr := hostSum()
	rr0 := rr

	iters := 0
	for it := 0; it < p.Cfg.MaxIters; it++ {
		functional := it < fn
		iters++

		sp := m.StartIteration(it)
		converged := func() bool {
			d.launch(specs[KSpMV], n, functional, spmv)
			d.launch(specs[KDot], nPart, functional, dotBody(pv, ap))
			d.readback(partBytes)
			pap := hostSum()
			if pap == 0 {
				return true
			}
			alpha := rr / pap

			d.launch(specs[KAxpy], n, functional, axpyBody(func(i int) { x[i] += alpha * pv[i] }))
			d.launch(specs[KAxpy], n, functional, axpyBody(func(i int) { r[i] -= alpha * ap[i] }))

			d.launch(specs[KDot], nPart, functional, dotBody(r, r))
			d.readback(partBytes)
			rrNew := hostSum()

			if functional && p.Cfg.Tol > 0 && math.Sqrt(rrNew) <= p.Cfg.Tol*math.Sqrt(rr0) {
				rr = rrNew
				return true
			}
			beta := rrNew / rr
			rr = rrNew
			d.launch(specs[KAxpy], n, functional, axpyBody(func(i int) { pv[i] = r[i] + beta*pv[i] }))
			return false
		}()
		sp.End()
		if converged {
			break
		}
	}

	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return iters, math.Sqrt(rr), sum
}

func (p *Problem) result(m *sim.Machine, model modelapi.Name, iters int, res, sum float64) SolveResult {
	return SolveResult{
		Result: appcore.Result{
			App: AppName, Model: model, Machine: m.Name(), Precision: p.Precision,
			ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
			Checksum: sum, Kernels: 3,
		},
		Iterations: iters,
		Residual:   res,
	}
}

func (p *Problem) matrixBytes() (mat, vecs int64) {
	elt := int64(appcore.EltBytes(p.Precision))
	mat = int64(p.A.NNZ())*(4+elt) + int64(p.A.NumRows+1)*4
	vecs = 4 * int64(p.A.NumRows) * elt // x, r, p, Ap
	return mat, vecs
}

// RunOpenMP is the CPU baseline. The host row loop streams each row's
// data through hardware prefetchers, so it takes the well-coalesced spec
// (the GPU lane-divergence waste of scalar CSR does not apply to a CPU)
// with the flat tally form.
func (p *Problem) RunOpenMP(m *sim.Machine) SolveResult {
	m.ResetClock()
	specs := p.specs(m, true)
	iters, res, sum := p.solve(m, &ompDriver{rt: openmp.New(m)}, specs, spmvHost)
	return p.result(m, modelapi.OpenMP, iters, res, sum)
}

// RunOpenCL uses the CSR-Adaptive SpMV with explicit staging.
func (p *Problem) RunOpenCL(m *sim.Machine) SolveResult {
	m.ResetClock()
	ctx := opencl.NewContext(m).WithCoexec()
	q := ctx.NewQueue()
	mat, vecs := p.matrixBytes()
	q.EnqueueWriteBuffer(ctx.CreateBuffer("minife.matrix", mat))
	q.EnqueueWriteBuffer(ctx.CreateBuffer("minife.vectors", vecs))
	elt := int64(appcore.EltBytes(p.Precision))
	nPart := int64((p.A.NumRows + dotBlock - 1) / dotBlock)
	partials := ctx.CreateBuffer("minife.partials", nPart*elt)
	iters, res, sum := p.solve(m, &clDriver{q: q, partials: partials}, p.specs(m, true), spmvAdaptive)
	q.EnqueueReadBuffer(ctx.CreateBuffer("minife.x", int64(p.A.NumRows)*elt))
	q.Finish()
	return p.result(m, modelapi.OpenCL, iters, res, sum)
}

// RunCppAMP uses tiled CSR-Adaptive via tile_static staging.
func (p *Problem) RunCppAMP(m *sim.Machine) SolveResult {
	m.ResetClock()
	rt := cppamp.New(m).WithCoexec()
	mat, vecs := p.matrixBytes()
	elt := int64(appcore.EltBytes(p.Precision))
	nPart := int64((p.A.NumRows + dotBlock - 1) / dotBlock)
	views := []*cppamp.ArrayView{
		rt.NewArrayView("minife.matrix", mat),
		rt.NewArrayView("minife.vectors", vecs),
		rt.NewArrayView("minife.partials", nPart*elt),
	}
	d := &ampDriver{rt: rt, views: views, partials: views[2]}
	iters, res, sum := p.solve(m, d, p.specs(m, true), spmvAdaptive)
	for _, v := range views {
		v.Synchronize()
	}
	return p.result(m, modelapi.CppAMP, iters, res, sum)
}

// RunOpenACC uses a data region; the compiler generates scalar
// row-per-thread CSR ("the compiler is unable to recognize and take
// advantage of the complicated memory access patterns") — the paper's
// explanation for the OpenACC slowdown on miniFE.
func (p *Problem) RunOpenACC(m *sim.Machine) SolveResult {
	m.ResetClock()
	rt := openacc.New(m).WithCoexec()
	mat, vecs := p.matrixBytes()
	elt := int64(appcore.EltBytes(p.Precision))
	nPart := int64((p.A.NumRows + dotBlock - 1) / dotBlock)
	region := rt.Data(
		openacc.Copyin("minife.matrix", mat),
		openacc.Copy("minife.vectors", vecs),
		openacc.Create("minife.partials", nPart*elt),
	)
	iters, res, sum := p.solve(m, &accDriver{rt: rt}, p.specs(m, false), spmvScalarGPU)
	region.End()
	return p.result(m, modelapi.OpenACC, iters, res, sum)
}

// accConservativeDriver launches every kernels region with its own data
// clauses and no enclosing data region: the PGI-era default the paper
// describes in Section III-B, where each region conservatively copies its
// arrays in and out. Kept for the data-directive ablation.
type accConservativeDriver struct {
	rt       *openacc.Runtime
	matrix   openacc.Clause
	vectors  openacc.Clause
	partials openacc.Clause
}

func (d *accConservativeDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	uses := []openacc.Clause{d.vectors}
	if spec.Name == KSpMV {
		uses = append(uses, d.matrix)
	}
	if spec.Name == KDot {
		uses = append(uses, d.partials)
	}
	d.rt.Launch(spec, n, uses, functional, body)
}
func (d *accConservativeDriver) readback(bytes int64) { d.rt.UpdateHost("minife.partials", bytes) }

// RunOpenACCConservative runs the CG solve without the hand-placed data
// region: every kernels region pays its own copies (Section III-B's
// motivation for the data directive).
func (p *Problem) RunOpenACCConservative(m *sim.Machine) SolveResult {
	m.ResetClock()
	rt := openacc.New(m)
	mat, vecs := p.matrixBytes()
	elt := int64(appcore.EltBytes(p.Precision))
	nPart := int64((p.A.NumRows + dotBlock - 1) / dotBlock)
	d := &accConservativeDriver{
		rt:       rt,
		matrix:   openacc.Copyin("minife.matrix", mat),
		vectors:  openacc.Copy("minife.vectors", vecs),
		partials: openacc.Copyout("minife.partials", nPart*elt),
	}
	iters, res, sum := p.solve(m, d, p.specs(m, false), spmvScalarGPU)
	return p.result(m, modelapi.OpenACC, iters, res, sum)
}

// Run dispatches by model name.
func (p *Problem) Run(m *sim.Machine, model modelapi.Name) SolveResult {
	m.ResetClock()
	sp := m.StartRun(AppName + "/" + string(model))
	defer sp.End()
	switch model {
	case modelapi.OpenMP:
		return p.RunOpenMP(m)
	case modelapi.OpenCL:
		return p.RunOpenCL(m)
	case modelapi.CppAMP:
		return p.RunCppAMP(m)
	case modelapi.OpenACC:
		return p.RunOpenACC(m)
	default:
		panic(fmt.Sprintf("minife: no implementation for %s", model))
	}
}
