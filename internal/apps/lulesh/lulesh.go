package lulesh

import (
	"fmt"

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
type Problem struct {
	Cfg       Config
	Precision timing.Precision
	Mesh      *Mesh
	// Memo, when set, shares the characterization with every problem of
	// the same Cfg and Precision in the run; nil measures on every call.
	Memo *appcore.Memo
}

// NewProblem builds the mesh for a configuration.
func NewProblem(cfg Config, prec timing.Precision) *Problem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Problem{Cfg: cfg, Precision: prec, Mesh: NewMesh(cfg.S)}
}

// ---------------------------------------------------------------------
// Data groups: the device allocations each implementation moves around.

type arrayGroup struct {
	name  string
	bytes int64
}

func (p *Problem) groups() []arrayGroup {
	nn, ne := int64(p.Mesh.NumNode), int64(p.Mesh.NumElem)
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
	out := appcore.Characterize(p.Memo, p.key(dev), func() [NumKernels]modelapi.KernelSpec {
		return p.measureSpecs(dev)
	})
	return &out
}

// measureSpecs builds the per-kernel memory traits by replaying realistic
// address traces (built from the actual mesh connectivity) through the
// accelerator's LLC model.
func (p *Problem) measureSpecs(dev *device.Device) (out [NumKernels]modelapi.KernelSpec) {
	elt := int(appcore.EltBytes(p.Precision))
	mesh := p.Mesh
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
	var gather []uint64
	for e := 0; e < sampleElems; e++ {
		for c := 0; c < 8; c++ {
			n := uint64(mesh.Nodelist[e*8+c])
			gather = append(gather, base(0)+n*uint64(elt))
			gather = append(gather, base(1)+n*uint64(elt))
			gather = append(gather, base(2)+n*uint64(elt))
		}
		gather = append(gather, base(3)+uint64(e)*uint64(elt))
	}
	gMiss, gCoal, _ := appcore.Traits(dev, gather, elt)

	// Node-gather trace (AddNodeForces): node loop reading its corners.
	var nodeGather []uint64
	sampleNodes := nn
	if sampleNodes > 1<<15 {
		sampleNodes = 1 << 15
	}
	for n := 0; n < sampleNodes; n++ {
		lo, hi := mesh.NodeElemStart[n], mesh.NodeElemStart[n+1]
		for i := lo; i < hi; i++ {
			nodeGather = append(nodeGather, base(4)+uint64(mesh.NodeElemCorner[i])*uint64(elt))
		}
	}
	nMiss, nCoal, _ := appcore.Traits(dev, nodeGather, elt)

	// Streaming trace.
	stream := make([]uint64, 1<<16)
	for i := range stream {
		stream[i] = base(5) + uint64(i*elt)
	}
	sMiss, sCoal, _ := appcore.Traits(dev, stream, elt)

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
	return appcore.Characterize(p.Memo, missKey(p.key(dev)), func() float64 { return p.measureMiss(dev) })
}

func (p *Problem) measureMiss(dev *device.Device) float64 {
	elt := int(appcore.EltBytes(p.Precision))
	mesh := p.Mesh
	sample := mesh.NumElem
	if sample > 1<<15 {
		sample = 1 << 15
	}
	var trace []uint64
	base := func(i int) uint64 { return uint64(i) * 64 << 20 }
	for e := 0; e < sample; e++ {
		for c := 0; c < 8; c++ {
			n := uint64(mesh.Nodelist[e*8+c])
			trace = append(trace, base(0)+n*uint64(elt))
		}
		trace = append(trace, base(1)+uint64(e)*uint64(elt))
		trace = append(trace, base(2)+uint64(e)*uint64(elt))
	}
	_, _, acc := appcore.Traits(dev, trace, elt)
	return acc
}

// ---------------------------------------------------------------------
// Per-model drivers.

type ompDriver struct {
	rt         *openmp.Runtime
	specs      *[NumKernels]modelapi.KernelSpec
	functional bool
}

func (d *ompDriver) launch(id KernelID, n int, body func(*exec.WorkItem)) {
	d.rt.Launch(d.specs[id], n, d.functional, body)
}
func (d *ompDriver) readback(int64) {}

type clDriver struct {
	q          *opencl.Queue
	specs      *[NumKernels]modelapi.KernelSpec
	partials   *opencl.Buffer
	functional bool
}

func (d *clDriver) launch(id KernelID, n int, body func(*exec.WorkItem)) {
	d.q.LaunchFunc(d.specs[id], n, d.functional, body)
}
func (d *clDriver) readback(int64) { d.q.EnqueueReadBuffer(d.partials) }

type ampDriver struct {
	rt         *cppamp.Runtime
	specs      *[NumKernels]modelapi.KernelSpec
	all        []*cppamp.ArrayView
	qgradViews []*cppamp.ArrayView // the CPU-fallback kernel's capture set
	partials   *cppamp.ArrayView
	fallback   bool // true on machines where the CLAMP bug bites (dGPU)
	functional bool
}

func (d *ampDriver) launch(id KernelID, n int, body func(*exec.WorkItem)) {
	if id == KQRegion && d.fallback {
		// The 28th kernel that CLAMP v0.6 could not compile for the
		// discrete GPU: runs on the CPU, forcing its captured views to
		// round-trip every iteration.
		d.rt.LaunchHostFallback(d.specs[id], n, d.qgradViews, d.functional, body)
		return
	}
	d.rt.Launch(d.specs[id], cppamp.NewExtent(n), d.all, d.functional, body)
}
func (d *ampDriver) readback(int64) { d.partials.Synchronize() }

type accDriver struct {
	rt         *openacc.Runtime
	specs      *[NumKernels]modelapi.KernelSpec
	partBytes  int64
	functional bool
}

func (d *accDriver) launch(id KernelID, n int, body func(*exec.WorkItem)) {
	// Arrays are device-resident via the enclosing data region.
	d.rt.Launch(d.specs[id], n, nil, d.functional, body)
}
func (d *accDriver) readback(bytes int64) { d.rt.UpdateHost("lulesh.partials", bytes) }

// ---------------------------------------------------------------------
// Run functions, one per model.

type runDriver interface {
	driver
	setFunctional(bool)
}

func (d *ompDriver) setFunctional(f bool) { d.functional = f }
func (d *clDriver) setFunctional(f bool)  { d.functional = f }
func (d *ampDriver) setFunctional(f bool) { d.functional = f }
func (d *accDriver) setFunctional(f bool) { d.functional = f }

// iterate runs the timestep loop: the leading FunctionalIters steps
// execute the physics, the rest replay measured kernel costs. Each
// timestep is wrapped in an iteration span on the machine's tracer.
func (p *Problem) iterate(m *sim.Machine, st *stepper, d runDriver) {
	fn := p.Cfg.functionalIters()
	for it := 0; it < p.Cfg.Iters; it++ {
		d.setFunctional(it < fn)
		sp := m.StartIteration(it)
		st.step(d)
		sp.End()
	}
}

func (p *Problem) result(m *sim.Machine, model modelapi.Name, s *State) appcore.Result {
	return appcore.Result{
		App: AppName, Model: model, Machine: m.Name(), Precision: p.Precision,
		ElapsedNs: m.ElapsedNs(), KernelNs: m.KernelNs(), TransferNs: m.TransferNs(), FaultNs: m.FaultNs(),
		Checksum: s.TotalEnergy(), Kernels: int(NumKernels),
	}
}

// RunOpenMP runs the 4-core CPU baseline.
func (p *Problem) RunOpenMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Mesh)
	st := newStepper(s, p.Precision)
	d := &ompDriver{rt: openmp.New(m), specs: p.specs(m)}
	p.iterate(m, st, d)
	return p.result(m, modelapi.OpenMP, s)
}

// RunOpenCL stages the state explicitly, runs 28 NDRange launches per
// iteration, reads the small constraint partials each step and the state
// once at the end — the hand-tuned data movement the paper credits for
// OpenCL's discrete-GPU wins.
func (p *Problem) RunOpenCL(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Mesh)
	st := newStepper(s, p.Precision)
	ctx := opencl.NewContext(m).WithCoexec()
	q := ctx.NewQueue()
	ctx.Bind("lulesh.e", s.E)

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
	d := &clDriver{q: q, specs: p.specs(m), partials: partials}
	p.iterate(m, st, d)
	// Final results home.
	q.EnqueueReadBuffer(ctx.CreateBuffer("lulesh.elem", p.group("lulesh.elem").bytes))
	q.EnqueueReadBuffer(ctx.CreateBuffer("lulesh.nodal", p.group("lulesh.nodal").bytes))
	q.Finish()
	return p.result(m, modelapi.OpenCL, s)
}

// RunCppAMP wraps the state in array_views. On the APU everything is
// zero-copy; on the discrete GPU the CLAMP compiler bug forces the
// monotonic-Q limiter kernel onto the CPU, and its captured views
// round-trip every iteration (Section VI-A's LULESH discussion).
func (p *Problem) RunCppAMP(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Mesh)
	st := newStepper(s, p.Precision)
	rt := cppamp.New(m).WithCoexec()
	rt.Bind("lulesh.e", s.E)

	views := map[string]*cppamp.ArrayView{}
	var all []*cppamp.ArrayView
	for _, g := range p.groups() {
		v := rt.NewArrayView(g.name, g.bytes)
		views[g.name] = v
		all = append(all, v)
	}
	d := &ampDriver{
		rt:         rt,
		specs:      p.specs(m),
		all:        all,
		qgradViews: []*cppamp.ArrayView{views["lulesh.qgrad"], views["lulesh.phi"]},
		partials:   views["lulesh.partials"],
		fallback:   !m.Unified(),
	}
	p.iterate(m, st, d)
	views["lulesh.elem"].Synchronize()
	views["lulesh.nodal"].Synchronize()
	return p.result(m, modelapi.CppAMP, s)
}

// RunOpenACC uses a structured data region around the whole timestep loop
// (the hand-tuned form the paper's implementations used) with a per-
// iteration `update host` of the constraint partials.
func (p *Problem) RunOpenACC(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Mesh)
	st := newStepper(s, p.Precision)
	rt := openacc.New(m).WithCoexec()
	rt.Bind("lulesh.e", s.E)

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
	d := &accDriver{rt: rt, specs: p.specs(m), partBytes: p.group("lulesh.partials").bytes}
	p.iterate(m, st, d)
	region.End()
	return p.result(m, modelapi.OpenACC, s)
}

// hcDriver launches through the Heterogeneous Compute runtime: single
// source like AMP, but explicit raw-pointer data management like OpenCL,
// plus async staging that overlaps the first timesteps.
type hcDriver struct {
	rt         *hc.Runtime
	specs      *[NumKernels]modelapi.KernelSpec
	partBytes  int64
	functional bool
}

func (d *hcDriver) launch(id KernelID, n int, body func(*exec.WorkItem)) {
	d.rt.LaunchCached(d.specs[id], n, d.functional, body)
}
func (d *hcDriver) readback(bytes int64) { d.rt.CopyBack("lulesh.partials", bytes) }
func (d *hcDriver) setFunctional(f bool) { d.functional = f }

// RunHC is the Section VII model: the initial state upload is
// asynchronous and hides behind the first timesteps' kernels, the
// per-iteration readback is explicit and minimal, and no view semantics
// ever re-copy the state. It is the "best of both worlds" configuration
// the paper closes with.
func (p *Problem) RunHC(m *sim.Machine) appcore.Result {
	m.ResetClock()
	s := NewState(p.Mesh)
	st := newStepper(s, p.Precision)
	rt := hc.New(m)
	for _, g := range p.groups() {
		switch g.name {
		case "lulesh.corner", "lulesh.partials":
			// device scratch
		default:
			rt.CopyAsync(g.name, g.bytes)
		}
	}
	d := &hcDriver{rt: rt, specs: p.specs(m), partBytes: p.group("lulesh.partials").bytes}
	p.iterate(m, st, d)
	rt.Wait()
	rt.CopyBack("lulesh.elem", p.group("lulesh.elem").bytes)
	rt.CopyBack("lulesh.nodal", p.group("lulesh.nodal").bytes)
	r := p.result(m, modelapi.HC, s)
	return r
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
		panic(fmt.Sprintf("lulesh: no implementation for %s", model))
	}
}
