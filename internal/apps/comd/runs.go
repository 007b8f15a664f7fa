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
	// the same Cfg and Precision in the run, and the functional pass with
	// every problem of the same Cfg; nil computes on every call.
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
// accelerator, measured once per run memo on the initial lattice.
func (p *Problem) characterize(m *sim.Machine) characterization {
	key := charKey{p.Cfg, p.Precision, appcore.GeometryOf(m.Accelerator())}
	return appcore.Memoize(p.Memo, key, func() characterization {
		return NewState(p.Cfg).characterize(m, p.Precision)
	})
}

// specs returns the kernel specs on the machine, indexed by kernel.
func (p *Problem) specs(m *sim.Machine) *[3]modelapi.KernelSpec {
	return p.characterize(m).specs()
}

// MeasuredMissRate reports the force gather's per-access LLC miss rate
// on the machine (the Table I number), measured once per run memo.
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

// bodies builds the three kernel bodies, tallying the force kernel in
// every precision and form and the integrators in every precision.
func (s *State) bodies() (force, velHalf, position func(*exec.WorkItem)) {
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
	return force, velHalf, position
}

// runKey keys the functional pass in a run memo: the lattice is all it
// reads, since every precision and force form is a view of one pass.
type runKey struct{ cfg Config }

// run executes the velocity-Verlet loop on s as a functional pass: the
// leading FunctionalIters steps execute the physics (rebuilding link
// cells every rebuildEvery steps), the rest replay measured kernel costs.
func (p *Problem) run(rec *appcore.Recorder, s *State) {
	force, velHalf, position := s.bodies()
	n := len(s.X)
	fn := p.Cfg.functionalIters()

	// Initial forces.
	rec.Launch(kForce, n, true, force)
	for it := 0; it < p.Cfg.Iters; it++ {
		functional := it < fn
		rec.Iteration(func() {
			rec.Launch(kVelocity, n, functional, velHalf)
			rec.Launch(kPosition, n, functional, position)
			if functional && it%rebuildEvery == rebuildEvery-1 {
				s.RebuildCells()
				rec.Transfer()
			}
			rec.Launch(kForce, n, functional, force)
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

func (p *Problem) result(m *sim.Machine, model modelapi.Name, energy float64) appcore.Result {
	return appcore.Result{
		App: AppName, Model: model, Machine: m.Name(), Precision: p.Precision,
		ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
		Checksum: energy, Kernels: 3,
	}
}

// RunOpenMP is the 4-core CPU baseline (flat force loop).
func (p *Problem) RunOpenMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := openmp.New(m)
	specs := p.specs(m)
	energy := p.play(rt.Runtime, appcore.Pricer{
		Launch: func(k, n int, per exec.Counters) { rt.Launch(specs[k], n, per) },
	}, flat)
	return p.result(m, modelapi.OpenMP, energy)
}

// runOpenCL stages atoms once and runs the force kernel in the given
// form.
func (p *Problem) runOpenCL(m *sim.Machine, form int) (*opencl.Context, float64) {
	m.ResetClock()
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

// RunOpenCL stages atoms once and uses the tiled, LDS-staged force kernel.
func (p *Problem) RunOpenCL(m *sim.Machine) appcore.Result {
	ctx, energy := p.runOpenCL(m, tiled)
	q := ctx.NewQueue()
	q.EnqueueReadBuffer(ctx.CreateBuffer("comd.force", p.groups()[2].bytes))
	q.Finish()
	return p.result(m, modelapi.OpenCL, energy)
}

// RunOpenCLFlat is the un-tiled OpenCL variant (no LDS staging), kept for
// the Section VI-C tiling ablation.
func (p *Problem) RunOpenCLFlat(m *sim.Machine) appcore.Result {
	_, energy := p.runOpenCL(m, flat)
	return p.result(m, modelapi.OpenCL, energy)
}

// RunCppAMP uses tile_static staging for the force kernel (the 3×
// improvement the paper credits to tiling, Section VI-C).
func (p *Problem) RunCppAMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
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
	return p.result(m, modelapi.CppAMP, energy)
}

// RunOpenACC annotates the flat loops; the compiler cannot tile or use the
// LDS (Figure 11), and the irregular force loop falls back to mostly
// scalar code (Section VI-A's CoMD result).
func (p *Problem) RunOpenACC(m *sim.Machine) appcore.Result {
	m.ResetClock()
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
	return p.result(m, modelapi.OpenACC, energy)
}

// Run dispatches by model name, wrapping the whole run in a trace span.
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
			panic(fmt.Sprintf("comd: no implementation for %s", model))
		}
	})
	return r
}
