package lulesh

import (
	"fmt"
	"sync"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/cppamp"
	"hetbench/internal/models/hc"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/models/openacc"
	"hetbench/internal/models/opencl"
	"hetbench/internal/models/openmp"
	"hetbench/internal/sim"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

// AppName identifies LULESH in results.
const AppName = "LULESH"

// Problem is a generated Sedov instance ready to run under any model.
// NewProblem builds its mesh; a Problem literal with Cfg, Precision (and
// Memo) set builds it on first need, so a run whose characterization and
// functional pass both hit the run memo never builds one.
type Problem struct {
	Cfg       Config
	Precision timing.Precision
	Mesh      *Mesh
	// Memo, when set, shares the mesh (connectivity and reference
	// geometry) with every problem of the same edge S in the run, the
	// characterization with every problem of the same Cfg and Precision,
	// and the functional pass with every problem of the same Cfg; nil
	// computes on every call.
	Memo *appcore.Memo

	build sync.Once
}

// NewProblem builds the mesh for a configuration.
func NewProblem(cfg Config, prec timing.Precision) *Problem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Problem{Cfg: cfg, Precision: prec}
	p.mesh()
	return p
}

// meshKey keys the mesh in a run memo: the edge is all NewMesh reads.
type meshKey struct{ s int }

// mesh returns the mesh, taking it from the run memo on first need.
func (p *Problem) mesh() *Mesh {
	p.build.Do(func() {
		if p.Mesh == nil {
			p.Mesh = appcore.Memoize(p.Memo, meshKey{p.Cfg.S}, func() *Mesh { return NewMesh(p.Cfg.S) })
		}
	})
	return p.Mesh
}

// ---------------------------------------------------------------------
// Data groups: the device allocations each implementation moves around.

type arrayGroup struct {
	name  string
	bytes int64
}

func (p *Problem) groups() []arrayGroup {
	s, np := int64(p.Cfg.S), int64(p.Cfg.S+1)
	nn, ne := np*np*np, s*s*s
	elt := int64(appcore.EltBytes(p.Precision))
	nPart := (ne + reduceBlk - 1) / reduceBlk
	return []arrayGroup{
		{"lulesh.nodal", 13 * nn * elt},                      // x,y,z, velocities, accels, forces, mass
		{"lulesh.elem", 22 * ne * elt},                       // e,p,q,v,... and EOS temporaries
		{"lulesh.qgrad", 3 * ne * elt},                       // delv_xi/eta/zeta
		{"lulesh.phi", 3 * ne * elt},                         // limiter outputs
		{"lulesh.corner", 24 * ne * elt},                     // per-corner force scratch
		{"lulesh.connect", (8*ne+nn+1+8*ne+6*ne)*4 + 3*nn*4}, // int32 topology
		{"lulesh.partials", nPart * elt},
	}
}

func (p *Problem) group(name string) arrayGroup {
	for _, g := range p.groups() {
		if g.name == name {
			return g
		}
	}
	panic("lulesh: unknown array group " + name)
}

// ---------------------------------------------------------------------
// Characterization: kernel specs with traits measured on the machine.

// specsKey keys the kernel specs in a run memo: the mesh, the element
// size and the LLC geometry are everything the traces depend on.
type specsKey struct {
	cfg  Config
	prec timing.Precision
	geom appcore.Geometry
}

// missKey keys the Table I miss rate, which replays a different trace.
type missKey specsKey

func (p *Problem) key(dev *device.Device) specsKey {
	return specsKey{p.Cfg, p.Precision, appcore.GeometryOf(dev)}
}

// specs returns the per-kernel memory traits on the machine's
// accelerator, measured once per run memo. Each call gets its own copy.
func (p *Problem) specs(m *sim.Machine) *[NumKernels]modelapi.KernelSpec {
	dev := m.Accelerator()
	out := appcore.Memoize(p.Memo, p.key(dev), func() [NumKernels]modelapi.KernelSpec {
		return p.measureSpecs(dev)
	})
	return &out
}

// measureSpecs builds the per-kernel memory traits by replaying realistic
// address traces (built from the actual mesh connectivity) through the
// accelerator's LLC model.
func (p *Problem) measureSpecs(dev *device.Device) (out [NumKernels]modelapi.KernelSpec) {
	elt := int(appcore.EltBytes(p.Precision))
	mesh := p.mesh()
	ne, nn := mesh.NumElem, mesh.NumNode

	// Distinct base addresses per array keep the trace honest about
	// conflict behaviour.
	base := func(i int) uint64 { return uint64(i) * 64 << 20 }

	sampleElems := ne
	if sampleElems > 1<<15 {
		sampleElems = 1 << 15
	}

	// Gather trace: element loop reading 8 nodes from 3 coordinate
	// arrays plus its own element record.
	gMiss, gCoal, _ := appcore.Traits(dev, elt, func(touch func(uint64)) {
		for e := 0; e < sampleElems; e++ {
			for c := 0; c < 8; c++ {
				n := uint64(mesh.Nodelist[e*8+c])
				touch(base(0) + n*uint64(elt))
				touch(base(1) + n*uint64(elt))
				touch(base(2) + n*uint64(elt))
			}
			touch(base(3) + uint64(e)*uint64(elt))
		}
	})

	// Node-gather trace (AddNodeForces): node loop reading its corners.
	sampleNodes := nn
	if sampleNodes > 1<<15 {
		sampleNodes = 1 << 15
	}
	nMiss, nCoal, _ := appcore.Traits(dev, elt, func(touch func(uint64)) {
		for n := 0; n < sampleNodes; n++ {
			lo, hi := mesh.NodeElemStart[n], mesh.NodeElemStart[n+1]
			for i := lo; i < hi; i++ {
				touch(base(4) + uint64(mesh.NodeElemCorner[i])*uint64(elt))
			}
		}
	})

	// Streaming trace.
	sMiss, sCoal, _ := appcore.Traits(dev, elt, func(touch func(uint64)) {
		for i := 0; i < 1<<16; i++ {
			touch(base(5) + uint64(i*elt))
		}
	})

	for id := KernelID(0); id < NumKernels; id++ {
		meta := Kernels[id]
		spec := modelapi.KernelSpec{Name: meta.Name, Class: meta.Class}
		switch {
		case id == KAddNodeForces:
			spec.MissRate, spec.Coalesce = nMiss, nCoal
		case meta.Class == modelapi.Regular:
			spec.MissRate, spec.Coalesce = gMiss, gCoal
		default:
			spec.MissRate, spec.Coalesce = sMiss, sCoal
		}
		out[id] = spec
	}
	return out
}

// MeasuredTraits reports the aggregate per-access LLC miss rate of the
// application's dominant access patterns on a device — the Table I
// characterization number — measured once per run memo.
func (p *Problem) MeasuredTraits(m *sim.Machine) (missRate float64) {
	dev := m.Accelerator()
	return appcore.Memoize(p.Memo, missKey(p.key(dev)), func() float64 { return p.measureMiss(dev) })
}

func (p *Problem) measureMiss(dev *device.Device) float64 {
	elt := int(appcore.EltBytes(p.Precision))
	mesh := p.mesh()
	sample := mesh.NumElem
	if sample > 1<<15 {
		sample = 1 << 15
	}
	base := func(i int) uint64 { return uint64(i) * 64 << 20 }
	_, _, acc := appcore.Traits(dev, elt, func(touch func(uint64)) {
		for e := 0; e < sample; e++ {
			for c := 0; c < 8; c++ {
				n := uint64(mesh.Nodelist[e*8+c])
				touch(base(0) + n*uint64(elt))
			}
			touch(base(1) + uint64(e)*uint64(elt))
			touch(base(2) + uint64(e)*uint64(elt))
		}
	})
	return acc
}

// ---------------------------------------------------------------------
// Functional pass.

// runKey keys the functional pass in a run memo: every model runs the
// same 28 kernel bodies in every precision, so the config is all it
// reads.
type runKey struct{ cfg Config }

// recDriver feeds one timestep's kernel launches and data movement to a
// functional-pass Recorder.
type recDriver struct {
	rec        *appcore.Recorder
	functional bool
}

// launch runs (or replays) kernel id over n items.
func (d *recDriver) launch(id KernelID, n int, body func(*exec.WorkItem)) {
	d.rec.Launch(int(id), n, d.functional, body)
}

// readback records the per-iteration device→host copy of the
// time-constraint partials.
func (d *recDriver) readback() { d.rec.Transfer() }

// execute is the functional pass: the timestep loop over a fresh Sedov
// state, digested by its total energy. The leading FunctionalIters steps
// execute the physics; the rest replay measured kernel costs.
func (p *Problem) execute(rec *appcore.Recorder) float64 {
	s := NewState(p.mesh())
	rec.Bind("lulesh.e", s.E)
	st := newStepper(s)
	d := &recDriver{rec: rec}
	fn := p.Cfg.functionalIters()
	for it := 0; it < p.Cfg.Iters; it++ {
		d.functional = it < fn
		rec.Iteration(func() { st.step(d) })
	}
	return s.TotalEnergy()
}

// play books the run's timesteps through the model driver d and returns
// the checksum (see appcore.Play). d's Transfer prices the per-iteration
// readback of the time-constraint partials.
func (p *Problem) play(core *modelapi.Runtime, d appcore.Pricer) float64 {
	return appcore.Play(p.Memo, runKey{p.Cfg}, appcore.View(p.Precision, 0, 1), core, d, p.execute)
}

// ---------------------------------------------------------------------
// Run functions, one per model.

func (p *Problem) result(m *sim.Machine, model modelapi.Name, sum float64) appcore.Result {
	return appcore.Result{
		App: AppName, Model: model, Machine: m.Name(), Precision: p.Precision,
		ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
		Checksum: sum, Kernels: int(NumKernels),
	}
}

// RunOpenMP runs the 4-core CPU baseline.
func (p *Problem) RunOpenMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := openmp.New(m)
	specs := p.specs(m)
	sum := p.play(rt.Runtime, appcore.Pricer{
		Launch: func(k, n int, per exec.Counters) { rt.Launch(specs[k], n, per) },
	})
	return p.result(m, modelapi.OpenMP, sum)
}

// RunOpenCL stages the state explicitly, runs 28 NDRange launches per
// iteration, reads the small constraint partials each step and the state
// once at the end — the hand-tuned data movement the paper credits for
// OpenCL's discrete-GPU wins.
func (p *Problem) RunOpenCL(m *sim.Machine) appcore.Result {
	m.ResetClock()
	ctx := opencl.NewContext(m).WithCoexec()
	q := ctx.NewQueue()

	var partials *opencl.Buffer
	for _, g := range p.groups() {
		buf := ctx.CreateBuffer(g.name, g.bytes)
		switch g.name {
		case "lulesh.corner":
			// device scratch: allocated, never copied
		case "lulesh.partials":
			partials = buf
		default:
			q.EnqueueWriteBuffer(buf)
		}
	}
	specs := p.specs(m)
	sum := p.play(ctx.Runtime, appcore.Pricer{
		Launch:   func(k, n int, per exec.Counters) { q.Launch(specs[k], n, per) },
		Transfer: func() { q.EnqueueReadBuffer(partials) },
	})
	// Final results home.
	q.EnqueueReadBuffer(ctx.CreateBuffer("lulesh.elem", p.group("lulesh.elem").bytes))
	q.EnqueueReadBuffer(ctx.CreateBuffer("lulesh.nodal", p.group("lulesh.nodal").bytes))
	q.Finish()
	return p.result(m, modelapi.OpenCL, sum)
}

// RunCppAMP wraps the state in array_views. On the APU everything is
// zero-copy; on the discrete GPU the CLAMP compiler bug forces the
// monotonic-Q limiter kernel onto the CPU, and its captured views
// round-trip every iteration (Section VI-A's LULESH discussion).
func (p *Problem) RunCppAMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := cppamp.New(m).WithCoexec()

	views := map[string]*cppamp.ArrayView{}
	var all []*cppamp.ArrayView
	for _, g := range p.groups() {
		v := rt.NewArrayView(g.name, g.bytes)
		views[g.name] = v
		all = append(all, v)
	}
	specs := p.specs(m)
	qgradViews := []*cppamp.ArrayView{views["lulesh.qgrad"], views["lulesh.phi"]} // the fallback kernel's capture set
	sum := p.play(rt.Runtime, appcore.Pricer{
		Launch: func(k, n int, per exec.Counters) {
			if KernelID(k) == KQRegion && !m.Unified() {
				// The 28th kernel that CLAMP v0.6 could not compile for
				// the discrete GPU: runs on the CPU, forcing its captured
				// views to round-trip every iteration.
				rt.LaunchHostFallback(specs[k], n, qgradViews, per)
				return
			}
			rt.Launch(specs[k], cppamp.NewExtent(n), all, per)
		},
		Transfer: func() { views["lulesh.partials"].Synchronize() },
	})
	views["lulesh.elem"].Synchronize()
	views["lulesh.nodal"].Synchronize()
	return p.result(m, modelapi.CppAMP, sum)
}

// RunOpenACC uses a structured data region around the whole timestep loop
// (the hand-tuned form the paper's implementations used) with a per-
// iteration `update host` of the constraint partials.
func (p *Problem) RunOpenACC(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := openacc.New(m).WithCoexec()

	var clauses []openacc.Clause
	for _, g := range p.groups() {
		switch g.name {
		case "lulesh.corner", "lulesh.qgrad", "lulesh.phi", "lulesh.partials":
			clauses = append(clauses, openacc.Create(g.name, g.bytes))
		case "lulesh.connect":
			clauses = append(clauses, openacc.Copyin(g.name, g.bytes))
		default:
			clauses = append(clauses, openacc.Copy(g.name, g.bytes))
		}
	}
	region := rt.Data(clauses...)
	specs := p.specs(m)
	partials := p.group("lulesh.partials").bytes
	sum := p.play(rt.Runtime, appcore.Pricer{
		// Arrays are device-resident via the enclosing data region.
		Launch:   func(k, n int, per exec.Counters) { rt.Launch(specs[k], n, nil, per) },
		Transfer: func() { rt.UpdateHost("lulesh.partials", partials) },
	})
	region.End()
	return p.result(m, modelapi.OpenACC, sum)
}

// RunHC is the Section VII model: the initial state upload is
// asynchronous and hides behind the first timesteps' kernels, the
// per-iteration readback is explicit and minimal, and no view semantics
// ever re-copy the state. It is the "best of both worlds" configuration
// the paper closes with.
func (p *Problem) RunHC(m *sim.Machine) appcore.Result {
	m.ResetClock()
	rt := hc.New(m)
	for _, g := range p.groups() {
		switch g.name {
		case "lulesh.corner", "lulesh.partials":
			// device scratch
		default:
			rt.CopyAsync(g.name, g.bytes)
		}
	}
	specs := p.specs(m)
	partials := p.group("lulesh.partials").bytes
	sum := p.play(rt.Runtime, appcore.Pricer{
		Launch:   func(k, n int, per exec.Counters) { rt.Launch(specs[k], n, per) },
		Transfer: func() { rt.CopyBack("lulesh.partials", partials) },
	})
	rt.Wait()
	rt.CopyBack("lulesh.elem", p.group("lulesh.elem").bytes)
	rt.CopyBack("lulesh.nodal", p.group("lulesh.nodal").bytes)
	return p.result(m, modelapi.HC, sum)
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
			panic(fmt.Sprintf("lulesh: no implementation for %s", model))
		}
	})
	return r
}
