package comd

import (
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
	// the same Cfg and Precision on its characterization table, and the
	// functional pass with every problem of the same Cfg in the run; nil
	// computes on every call.
	Memo *appcore.Memo
}

// charKey keys the characterization in a characterization table: the initial lattice,
// the element size and the LLC geometry (stream count included) are
// everything the traces depend on.
type charKey struct {
	cfg  Config
	prec timing.Precision
	geom appcore.Geometry
}

// characterize returns the characterization on the machine's
// accelerator, measured once per characterization table on the initial
// lattice.
func (p *Problem) characterize(m *sim.Machine) characterization {
	key := charKey{p.Cfg, p.Precision, appcore.GeometryOf(m.Accelerator())}
	return appcore.Characterize(p.Memo, key, func() characterization {
		return NewState(p.Cfg).characterize(m, p.Precision)
	})
}

// specs returns the kernel specs on the machine, indexed by kernel.
func (p *Problem) specs(m *sim.Machine) *[3]modelapi.KernelSpec {
	return p.characterize(m).specs()
}

// MeasuredMissRate reports the force gather's per-access LLC miss rate
// on the machine (the Table I number), measured once per
// characterization table.
func (p *Problem) MeasuredMissRate(m *sim.Machine) float64 {
	return p.characterize(m).forceAccessMiss
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

func (p *Problem) groups() []arrayGroup {
	n := int64(p.Cfg.NumAtoms())
	nc := int64(p.Cfg.numCells())
	elt := int64(appcore.EltBytes(p.Precision))
	return []arrayGroup{
		{"comd.pos", 3 * n * elt},
		{"comd.vel", 3 * n * elt},
		{"comd.force", 4 * n * elt}, // forces + per-atom PE
		{"comd.cells", (2*n + nc + 1 + 27*nc) * 4},
	}
}

// The force kernel's tally forms. The tiled form is the LDS-staged
// force tally (OpenCL/C++ AMP); the flat form re-reads every neighbor
// from global memory (all OpenACC can express, and the OpenMP baseline).
const (
	flat = iota
	tiled
	forceForms
)

// view is the pricing view of a run at prec with the force kernel in
// form.
func view(prec timing.Precision, form int) int { return appcore.View(prec, form, forceForms) }

// forceBody is the force kernel's body: item i computes atom i's force
// and energy, tallying its work in every precision and form.
func (s *State) forceBody() func(*exec.WorkItem) {
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
	return func(w *exec.WorkItem) {
		i := w.Global
		fx, fy, fz, pe, visited := s.ljForceAtom(i)
		s.Fx[i], s.Fy[i], s.Fz[i], s.PE[i] = fx, fy, fz, pe
		flops := float64(visited)*14 + 30
		for _, prec := range appcore.Precisions {
			elt := appcore.EltBytes(prec)
			sp, dp := appcore.Flops(prec, flops)
			for form := range forceForms {
				loads := float64(visited) * 3 * elt
				instrs := float64(visited)*18 + 40
				var lds float64
				if form == tiled {
					// Neighbor positions staged once per tile and reused.
					lds = loads
					loads = loads/reuse + 8*elt
				} else {
					instrs *= divergenceReplay
				}
				w.Tally(view(prec, form), exec.Counters{
					SPFlops: sp, DPFlops: dp,
					LoadBytes:  loads,
					StoreBytes: 4 * elt,
					LDSBytes:   lds,
					Instrs:     instrs,
				})
			}
		}
	}
}

// Forces runs the force kernel once over every atom at the current
// positions, storing each atom's force and potential energy, and
// returns the kernel's per-item counters in every view. It first
// refreshes the cell boxes the cutoff test reads.
func (s *State) Forces() exec.Views {
	s.refreshBoxes()
	return exec.Measure(len(s.X), s.forceBody())
}

// integrators builds the two integrator bodies, tallied in every
// precision.
func (s *State) integrators() (velHalf, position func(*exec.WorkItem)) {
	dt := dtStep
	velHalf = exec.Uniform(appcore.PerView(forceForms, func(prec timing.Precision) exec.Counters {
		elt := appcore.EltBytes(prec)
		per := exec.Counters{LoadBytes: 6 * elt, StoreBytes: 3 * elt, Instrs: 16}
		per.SPFlops, per.DPFlops = appcore.Flops(prec, 9)
		return per
	}), func(i int) {
		s.Vx[i] += 0.5 * dt * s.Fx[i]
		s.Vy[i] += 0.5 * dt * s.Fy[i]
		s.Vz[i] += 0.5 * dt * s.Fz[i]
	})
	position = exec.Uniform(appcore.PerView(forceForms, func(prec timing.Precision) exec.Counters {
		elt := appcore.EltBytes(prec)
		per := exec.Counters{LoadBytes: 6 * elt, StoreBytes: 3 * elt, Instrs: 24}
		per.SPFlops, per.DPFlops = appcore.Flops(prec, 12)
		return per
	}), func(i int) {
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
	return velHalf, position
}

// runKey keys the functional pass in a run memo: the lattice is all it
// reads, since every precision and force form is a view of one pass.
type runKey struct{ cfg Config }

// run executes the velocity-Verlet loop on s as a functional pass: the
// leading FunctionalIters steps execute the physics (rebuilding link
// cells every rebuildEvery steps), the rest replay measured kernel costs.
func (p *Problem) run(rec *appcore.Recorder, s *State) {
	velHalf, position := s.integrators()
	n := len(s.X)
	fn := p.Cfg.functionalIters()

	// Initial forces.
	rec.LaunchWith(kForce, n, true, s.Forces)
	for it := 0; it < p.Cfg.Iters; it++ {
		functional := it < fn
		rec.Iteration(func() {
			rec.Launch(kVelocity, n, functional, velHalf)
			rec.Launch(kPosition, n, functional, position)
			if functional && it%rebuildEvery == rebuildEvery-1 {
				s.RebuildCells()
				rec.Transfer()
			}
			rec.LaunchWith(kForce, n, functional, s.Forces)
			rec.Launch(kVelocity, n, functional, velHalf)
		})
	}
}

// play books the run through the model driver d, in the view of the
// Problem's precision and the force kernel's form, and returns the total
// energy (see appcore.Play). d's Transfer prices the periodic re-upload
// of the rebuilt link cells.
func (p *Problem) play(core *modelapi.Runtime, d appcore.Pricer, form int) float64 {
	return appcore.Play(p.Memo, runKey{p.Cfg}, view(p.Precision, form), core, d, func(rec *appcore.Recorder) float64 {
		s := NewState(p.Cfg)
		p.run(rec, s)
		return s.TotalEnergy()
	})
}

// runOpenMP is the 4-core CPU baseline (flat force loop).
func (p *Problem) runOpenMP(m *sim.Machine) appcore.Result {
	rt := openmp.New(m)
	specs := p.specs(m)
	energy := p.play(rt.Runtime, appcore.Pricer{
		Launch: func(k, n int, per exec.Counters) { rt.Launch(specs[k], n, per) },
	}, flat)
	return appcore.NewResult(m, AppName, modelapi.OpenMP, p.Precision, energy, 3)
}

// stageOpenCL stages atoms once and runs the force kernel in the given
// form.
func (p *Problem) stageOpenCL(m *sim.Machine, form int) (*opencl.Context, float64) {
	ctx := opencl.NewContext(m)
	q := ctx.NewQueue()
	var cells *opencl.Buffer
	for _, g := range p.groups() {
		buf := ctx.CreateBuffer(g.name, g.bytes)
		q.EnqueueWriteBuffer(buf)
		if g.name == "comd.cells" {
			cells = buf
		}
	}
	specs := p.specs(m)
	return ctx, p.play(ctx.Runtime, appcore.Pricer{
		Launch:   func(k, n int, per exec.Counters) { q.Launch(specs[k], n, per) },
		Transfer: func() { q.EnqueueWriteBuffer(cells) },
	}, form)
}

// runOpenCL stages atoms once and uses the tiled, LDS-staged force kernel.
func (p *Problem) runOpenCL(m *sim.Machine) appcore.Result {
	ctx, energy := p.stageOpenCL(m, tiled)
	q := ctx.NewQueue()
	q.EnqueueReadBuffer(ctx.CreateBuffer("comd.force", p.groups()[2].bytes))
	q.Finish()
	return appcore.NewResult(m, AppName, modelapi.OpenCL, p.Precision, energy, 3)
}

// OpenCLFlat is the port key of the un-tiled OpenCL variant (Section
// VI-C's tiling ablation). Its Result.Model is OpenCL.
const OpenCLFlat modelapi.Name = "OpenCL-flat"

// runOpenCLFlat is the un-tiled OpenCL variant (no LDS staging).
func (p *Problem) runOpenCLFlat(m *sim.Machine) appcore.Result {
	_, energy := p.stageOpenCL(m, flat)
	return appcore.NewResult(m, AppName, modelapi.OpenCL, p.Precision, energy, 3)
}

// runCppAMP uses tile_static staging for the force kernel (the 3×
// improvement the paper credits to tiling, Section VI-C).
func (p *Problem) runCppAMP(m *sim.Machine) appcore.Result {
	rt := cppamp.New(m)
	var views []*cppamp.ArrayView
	var cells *cppamp.ArrayView
	for _, g := range p.groups() {
		v := rt.NewArrayView(g.name, g.bytes)
		views = append(views, v)
		if g.name == "comd.cells" {
			cells = v
		}
	}
	specs := p.specs(m)
	energy := p.play(rt.Runtime, appcore.Pricer{
		Launch:   func(k, n int, per exec.Counters) { rt.Launch(specs[k], cppamp.NewExtent(n), views, per) },
		Transfer: func() { cells.HostWrite() }, // restaged at next launch
	}, tiled)
	views[2].Synchronize() // forces + energies
	return appcore.NewResult(m, AppName, modelapi.CppAMP, p.Precision, energy, 3)
}

// runOpenACC annotates the flat loops; the compiler cannot tile or use the
// LDS (Figure 11), and the irregular force loop falls back to mostly
// scalar code (Section VI-A's CoMD result).
func (p *Problem) runOpenACC(m *sim.Machine) appcore.Result {
	rt := openacc.New(m)
	var clauses []openacc.Clause
	for _, g := range p.groups() {
		clauses = append(clauses, openacc.Copy(g.name, g.bytes))
	}
	region := rt.Data(clauses...)
	specs := p.specs(m)
	cells := p.groups()[3].bytes
	energy := p.play(rt.Runtime, appcore.Pricer{
		Launch:   func(k, n int, per exec.Counters) { rt.Launch(specs[k], n, nil, per) },
		Transfer: func() { rt.UpdateDevice("comd.cells", cells) },
	}, flat)
	region.End()
	return appcore.NewResult(m, AppName, modelapi.OpenACC, p.Precision, energy, 3)
}

// ports are the keys Run dispatches to: the models and the flat variant.
var ports = map[modelapi.Name]func(*Problem, *sim.Machine) appcore.Result{
	modelapi.OpenMP:  (*Problem).runOpenMP,
	modelapi.OpenCL:  (*Problem).runOpenCL,
	modelapi.CppAMP:  (*Problem).runCppAMP,
	modelapi.OpenACC: (*Problem).runOpenACC,
	OpenCLFlat:       (*Problem).runOpenCLFlat,
}

// Run runs CoMD under model on m inside one run span (see appcore.Run).
func (p *Problem) Run(m *sim.Machine, model modelapi.Name) appcore.Result {
	return appcore.Run(m, AppName, model, p, ports)
}
