package comd

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
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// rebuildEvery is the link-cell redistribution interval in steps. Atoms
// move ≈ v·dt·rebuildEvery ≈ 1e-3 σ between rebuilds, far below the cell
// slack, so the force computation remains exact.
const rebuildEvery = 10

// Problem couples a configuration with a precision.
type Problem struct {
	Cfg       Config
	Precision timing.Precision
	// Memo, when set, shares the characterization with every problem of
	// the same Cfg and Precision in the run; nil measures on every call.
	Memo *appcore.Memo
}

// charKey keys the characterization in a run memo: the initial lattice,
// the element size and the LLC geometry (stream count included) are
// everything the traces depend on.
type charKey struct {
	cfg  Config
	prec timing.Precision
	geom appcore.Geometry
}

// characterize returns the characterization on the machine's
// accelerator, measured once per run memo. s must be a fresh
// NewState(p.Cfg); nil builds one if the memo misses.
func (p *Problem) characterize(m *sim.Machine, s *State) characterization {
	key := charKey{p.Cfg, p.Precision, appcore.GeometryOf(m.Accelerator())}
	return appcore.Characterize(p.Memo, key, func() characterization {
		if s == nil {
			s = NewState(p.Cfg)
		}
		return s.characterize(m, p.Precision)
	})
}

func (p *Problem) specs(m *sim.Machine, s *State) map[string]modelapi.KernelSpec {
	return p.characterize(m, s).specs()
}

// MeasuredMissRate reports the force gather's per-access LLC miss rate
// on the machine (the Table I number), measured once per run memo.
func (p *Problem) MeasuredMissRate(m *sim.Machine) float64 {
	return p.characterize(m, nil).forceAccessMiss
}

// NewProblem validates and wraps a configuration.
func NewProblem(cfg Config, prec timing.Precision) *Problem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Problem{Cfg: cfg, Precision: prec}
}

type arrayGroup struct {
	name  string
	bytes int64
}

func (p *Problem) groups(s *State) []arrayGroup {
	n := int64(len(s.X))
	nc := int64(s.numCells())
	elt := int64(appcore.EltBytes(p.Precision))
	return []arrayGroup{
		{"comd.pos", 3 * n * elt},
		{"comd.vel", 3 * n * elt},
		{"comd.force", 4 * n * elt}, // forces + per-atom PE
		{"comd.cells", (2*n + nc + 1 + 27*nc) * 4},
	}
}

// bodies builds the three kernel bodies. tiled selects the LDS-staged
// force tally (OpenCL/C++ AMP); the flat form re-reads every neighbor from
// global memory (all OpenACC can express, and the OpenMP baseline).
func (p *Problem) bodies(s *State, tiled bool) (force, velHalf, position func(*exec.WorkItem)) {
	elt := appcore.EltBytes(p.Precision)
	n := len(s.X)
	// Average atoms per cell: the LDS reuse factor for the tiled form.
	reuse := float64(n) / float64(s.numCells())
	if reuse < 1 {
		reuse = 1
	}
	if reuse > cellsKMax {
		reuse = cellsKMax
	}

	// Un-tiled gathers issue one scattered vector load per neighbor, and
	// lane divergence makes the hardware replay each such instruction
	// several times; staging the cell's atoms through the LDS (tiles)
	// turns them into coalesced loads. This is the mechanism behind the
	// paper's "exposing parallelism in the form of tiles improved the
	// performance of CoMD by almost 3×".
	const divergenceReplay = 3.0
	force = func(w *exec.WorkItem) {
		i := w.Global
		fx, fy, fz, pe, visited := s.ljForceAtom(i)
		s.Fx[i], s.Fy[i], s.Fz[i], s.PE[i] = fx, fy, fz, pe
		flops := float64(visited)*14 + 30
		sp, dp := appcore.Flops(p.Precision, flops)
		loads := float64(visited) * 3 * elt
		instrs := float64(visited)*18 + 40
		var lds float64
		if tiled {
			// Neighbor positions staged once per tile and reused.
			lds = loads
			loads = loads/reuse + 8*elt
		} else {
			instrs *= divergenceReplay
		}
		w.Tally(exec.Counters{
			SPFlops: sp, DPFlops: dp,
			LoadBytes:  loads,
			StoreBytes: 4 * elt,
			LDSBytes:   lds,
			Instrs:     instrs,
		})
	}
	dt := dtStep
	velPer := exec.Counters{LoadBytes: 6 * elt, StoreBytes: 3 * elt, Instrs: 16}
	velPer.SPFlops, velPer.DPFlops = appcore.Flops(p.Precision, 9)
	velHalf = exec.Uniform(velPer, func(i int) {
		s.Vx[i] += 0.5 * dt * s.Fx[i]
		s.Vy[i] += 0.5 * dt * s.Fy[i]
		s.Vz[i] += 0.5 * dt * s.Fz[i]
	})
	posPer := exec.Counters{LoadBytes: 6 * elt, StoreBytes: 3 * elt, Instrs: 24}
	posPer.SPFlops, posPer.DPFlops = appcore.Flops(p.Precision, 12)
	position = exec.Uniform(posPer, func(i int) {
		wrap := func(x, l float64) float64 {
			x = math.Mod(x, l)
			if x < 0 {
				x += l
			}
			return x
		}
		s.X[i] = wrap(s.X[i]+dt*s.Vx[i], s.Lx)
		s.Y[i] = wrap(s.Y[i]+dt*s.Vy[i], s.Ly)
		s.Z[i] = wrap(s.Z[i]+dt*s.Vz[i], s.Lz)
	})
	return force, velHalf, position
}

// driver abstracts per-model launching and the periodic cell re-upload.
type driver interface {
	launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem))
	uploadCells(bytes int64)
}

type ompDriver struct{ rt *openmp.Runtime }

func (d *ompDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	d.rt.Launch(spec, n, functional, body)
}
func (d *ompDriver) uploadCells(int64) {}

type clDriver struct {
	q     *opencl.Queue
	cells *opencl.Buffer
}

func (d *clDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	d.q.LaunchFunc(spec, n, functional, body)
}
func (d *clDriver) uploadCells(int64) { d.q.EnqueueWriteBuffer(d.cells) }

type ampDriver struct {
	rt    *cppamp.Runtime
	views []*cppamp.ArrayView
	cells *cppamp.ArrayView
}

func (d *ampDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	d.rt.Launch(spec, cppamp.NewExtent(n), d.views, functional, body)
}
func (d *ampDriver) uploadCells(int64) { d.cells.HostWrite() } // restaged at next launch

type accDriver struct{ rt *openacc.Runtime }

func (d *accDriver) launch(spec modelapi.KernelSpec, n int, functional bool, body func(*exec.WorkItem)) {
	d.rt.Launch(spec, n, nil, functional, body)
}
func (d *accDriver) uploadCells(bytes int64) { d.rt.UpdateDevice("comd.cells", bytes) }

// run executes the velocity-Verlet loop under the given driver. Each
// timestep is wrapped in an iteration span on the machine's tracer.
func (p *Problem) run(m *sim.Machine, s *State, specs map[string]modelapi.KernelSpec, d driver, tiled bool) {
	force, velHalf, position := p.bodies(s, tiled)
	n := len(s.X)
	fn := p.Cfg.functionalIters()
	cellBytes := p.groups(s)[3].bytes

	// Initial forces.
	d.launch(specs[KForce], n, true, force)
	for it := 0; it < p.Cfg.Iters; it++ {
		functional := it < fn
		sp := m.StartIteration(it)
		d.launch(specs[KVelocity], n, functional, velHalf)
		d.launch(specs[KPosition], n, functional, position)
		if functional && it%rebuildEvery == rebuildEvery-1 {
			s.RebuildCells()
			d.uploadCells(cellBytes)
		}
		d.launch(specs[KForce], n, functional, force)
		d.launch(specs[KVelocity], n, functional, velHalf)
		sp.End()
	}
}

func (p *Problem) result(m *sim.Machine, model modelapi.Name, s *State) appcore.Result {
	return appcore.Result{
		App: AppName, Model: model, Machine: m.Name(), Precision: p.Precision,
		ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
		Checksum: s.TotalEnergy(), Kernels: 3,
	}
}

// RunOpenMP is the 4-core CPU baseline (flat force loop).
func (p *Problem) RunOpenMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Cfg)
	p.run(m, s, p.specs(m, s), &ompDriver{rt: openmp.New(m)}, false)
	return p.result(m, modelapi.OpenMP, s)
}

// RunOpenCL stages atoms once and uses the tiled, LDS-staged force kernel.
func (p *Problem) RunOpenCL(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Cfg)
	ctx := opencl.NewContext(m)
	q := ctx.NewQueue()
	var cells *opencl.Buffer
	for _, g := range p.groups(s) {
		buf := ctx.CreateBuffer(g.name, g.bytes)
		q.EnqueueWriteBuffer(buf)
		if g.name == "comd.cells" {
			cells = buf
		}
	}
	p.run(m, s, p.specs(m, s), &clDriver{q: q, cells: cells}, true)
	q.EnqueueReadBuffer(ctx.CreateBuffer("comd.force", p.groups(s)[2].bytes))
	q.Finish()
	return p.result(m, modelapi.OpenCL, s)
}

// RunOpenCLFlat is the un-tiled OpenCL variant (no LDS staging), kept for
// the Section VI-C tiling ablation.
func (p *Problem) RunOpenCLFlat(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Cfg)
	ctx := opencl.NewContext(m)
	q := ctx.NewQueue()
	var cells *opencl.Buffer
	for _, g := range p.groups(s) {
		buf := ctx.CreateBuffer(g.name, g.bytes)
		q.EnqueueWriteBuffer(buf)
		if g.name == "comd.cells" {
			cells = buf
		}
	}
	p.run(m, s, p.specs(m, s), &clDriver{q: q, cells: cells}, false)
	return p.result(m, modelapi.OpenCL, s)
}

// RunCppAMP uses tile_static staging for the force kernel (the 3×
// improvement the paper credits to tiling, Section VI-C).
func (p *Problem) RunCppAMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Cfg)
	rt := cppamp.New(m)
	var views []*cppamp.ArrayView
	var cells *cppamp.ArrayView
	for _, g := range p.groups(s) {
		v := rt.NewArrayView(g.name, g.bytes)
		views = append(views, v)
		if g.name == "comd.cells" {
			cells = v
		}
	}
	p.run(m, s, p.specs(m, s), &ampDriver{rt: rt, views: views, cells: cells}, true)
	views[2].Synchronize() // forces + energies
	return p.result(m, modelapi.CppAMP, s)
}

// RunOpenACC annotates the flat loops; the compiler cannot tile or use the
// LDS (Figure 11), and the irregular force loop falls back to mostly
// scalar code (Section VI-A's CoMD result).
func (p *Problem) RunOpenACC(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Cfg)
	rt := openacc.New(m)
	var clauses []openacc.Clause
	for _, g := range p.groups(s) {
		clauses = append(clauses, openacc.Copy(g.name, g.bytes))
	}
	region := rt.Data(clauses...)
	p.run(m, s, p.specs(m, s), &accDriver{rt: rt}, false)
	region.End()
	return p.result(m, modelapi.OpenACC, s)
}

// Run dispatches by model name, wrapping the whole run in a trace span.
func (p *Problem) Run(m *sim.Machine, model modelapi.Name) appcore.Result {
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
		panic(fmt.Sprintf("comd: no implementation for %s", model))
	}
}
