package lulesh

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

func smallCfg() Config { return Config{S: 8, Iters: 10} }

func TestMeshConnectivity(t *testing.T) {
	m := NewMesh(4)
	if m.NumElem != 64 || m.NumNode != 125 {
		t.Fatalf("mesh sizes = %d elems / %d nodes, want 64/125", m.NumElem, m.NumNode)
	}
	// Every element has 8 distinct nodes in range.
	for e := 0; e < m.NumElem; e++ {
		seen := map[int32]bool{}
		for c := 0; c < 8; c++ {
			n := m.Nodelist[e*8+c]
			if n < 0 || int(n) >= m.NumNode {
				t.Fatalf("elem %d corner %d: node %d out of range", e, c, n)
			}
			if seen[n] {
				t.Fatalf("elem %d repeats node %d", e, n)
			}
			seen[n] = true
		}
	}
	// CSR adjacency covers all 8·NumElem corners exactly once.
	if got := int(m.NodeElemStart[m.NumNode]); got != 8*m.NumElem {
		t.Errorf("corner adjacency covers %d, want %d", got, 8*m.NumElem)
	}
	// The interior node touches 8 elements, the origin corner node 1.
	if deg := m.NodeElemStart[1] - m.NodeElemStart[0]; deg != 1 {
		t.Errorf("corner node degree = %d, want 1", deg)
	}
	// Neighbors: interior element has 6 distinct neighbors; corner
	// element 0 has itself on the -x,-y,-z sides.
	if m.Lxim[0] != 0 || m.Letam[0] != 0 || m.Lzetam[0] != 0 {
		t.Error("boundary element must neighbor itself on outer faces")
	}
	if m.Lxip[0] != 1 {
		t.Errorf("elem 0 +x neighbor = %d, want 1", m.Lxip[0])
	}
	// Symmetry sets: (S+1)² nodes each.
	if len(m.SymmX) != 25 || len(m.SymmY) != 25 || len(m.SymmZ) != 25 {
		t.Errorf("symmetry set sizes %d/%d/%d, want 25", len(m.SymmX), len(m.SymmY), len(m.SymmZ))
	}
}

func TestHexVolumeUnitCube(t *testing.T) {
	px := [8]float64{0, 1, 1, 0, 0, 1, 1, 0}
	py := [8]float64{0, 0, 1, 1, 0, 0, 1, 1}
	pz := [8]float64{0, 0, 0, 0, 1, 1, 1, 1}
	if v := hexVolume(&px, &py, &pz); math.Abs(v-1) > 1e-12 {
		t.Errorf("unit cube volume = %g, want 1", v)
	}
	// Scaling by 2 in x doubles the volume.
	for i := range px {
		px[i] *= 2
	}
	if v := hexVolume(&px, &py, &pz); math.Abs(v-2) > 1e-12 {
		t.Errorf("stretched volume = %g, want 2", v)
	}
}

func TestQuickHexVolumeScaling(t *testing.T) {
	// Property: scaling all coordinates by s scales volume by s³.
	f := func(seed uint8) bool {
		s := 0.5 + float64(seed)/64.0
		px := [8]float64{0, 1, 1, 0, 0, 1, 1, 0}
		py := [8]float64{0, 0, 1, 1, 0, 0, 1, 1}
		pz := [8]float64{0, 0, 0, 0, 1, 1, 1, 1}
		v1 := hexVolume(&px, &py, &pz)
		for i := 0; i < 8; i++ {
			px[i] *= s
			py[i] *= s
			pz[i] *= s
		}
		v2 := hexVolume(&px, &py, &pz)
		return math.Abs(v2-v1*s*s*s) < 1e-9*math.Abs(v2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hexVolumeTable is hexVolume's reference: the faces of hexFaces, each
// as its four triangles, driven from the tables. hexVolume must match it
// bit for bit.
func hexVolumeTable(px, py, pz *[8]float64) float64 {
	vol := 0.0
	for _, f := range hexFaces {
		for _, tri := range [4][3]int{
			{f[0], f[1], f[2]}, {f[0], f[2], f[3]}, // diagonal 0–2
			{f[1], f[2], f[3]}, {f[1], f[3], f[0]}, // diagonal 1–3
		} {
			a, b, c := tri[0], tri[1], tri[2]
			vol += px[a]*(py[b]*pz[c]-pz[b]*py[c]) -
				py[a]*(px[b]*pz[c]-pz[b]*px[c]) +
				pz[a]*(px[b]*py[c]-py[b]*px[c])
		}
	}
	return vol / 12
}

func TestHexVolumeMatchesTableForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	unit := func() (px, py, pz [8]float64) {
		for c := 0; c < 8; c++ {
			px[c], py[c], pz[c] = float64(cornerDX[c]), float64(cornerDY[c]), float64(cornerDZ[c])
		}
		return
	}
	check := func(kind string, px, py, pz [8]float64) {
		t.Helper()
		got, want := hexVolume(&px, &py, &pz), hexVolumeTable(&px, &py, &pz)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s hex %v %v %v: volume %v, table form %v", kind, px, py, pz, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		// Perturbed: every corner moved, at a random scale and offset.
		px, py, pz := unit()
		scale, off := math.Ldexp(1, rng.Intn(40)-20), rng.NormFloat64()*10
		for c := 0; c < 8; c++ {
			px[c] = off + scale*(px[c]+0.3*rng.NormFloat64())
			py[c] = off + scale*(py[c]+0.3*rng.NormFloat64())
			pz[c] = off + scale*(pz[c]+0.3*rng.NormFloat64())
		}
		check("perturbed", px, py, pz)

		// Degenerate: the top face collapsed onto the bottom one, or
		// two corners merged.
		px, py, pz = unit()
		for c := 4; c < 8; c++ {
			pz[c] = rng.Float64() * 1e-12
		}
		check("flat", px, py, pz)
		px, py, pz = unit()
		a, b := rng.Intn(8), rng.Intn(8)
		px[a], py[a], pz[a] = px[b], py[b], pz[b]
		check("merged", px, py, pz)

		// Inverted: mirrored, or a corner pushed through the hex.
		px, py, pz = unit()
		for c := 0; c < 8; c++ {
			px[c] = -px[c] + 0.1*rng.NormFloat64()
		}
		check("mirrored", px, py, pz)
		px, py, pz = unit()
		c := rng.Intn(8)
		px[c], py[c], pz[c] = 1-px[c]+rng.Float64(), 1-py[c]+rng.Float64(), 1-pz[c]+rng.Float64()
		check("tangled", px, py, pz)
	}
}

// newStateBruteForce is NewState's reference: the Sedov initialization
// computed on the state itself, unit-cube coordinates and each element's
// volume (by hexVolumeTable), masses accumulated from those.
func newStateBruteForce(m *Mesh) *State {
	s := NewState(m)
	for _, f := range [][]float64{s.X, s.Y, s.Z, s.NodalMass, s.V, s.Volo, s.Vnew, s.ElemMass} {
		clear(f)
	}
	np := m.S + 1
	h := 1.0 / float64(m.S)
	for k := 0; k < np; k++ {
		for j := 0; j < np; j++ {
			for i := 0; i < np; i++ {
				n := (k*np+j)*np + i
				s.X[n] = float64(i) * h
				s.Y[n] = float64(j) * h
				s.Z[n] = float64(k) * h
			}
		}
	}
	for e := 0; e < m.NumElem; e++ {
		nl := m.Nodelist[e*8 : e*8+8]
		var px, py, pz [8]float64
		for c := 0; c < 8; c++ {
			px[c], py[c], pz[c] = s.X[nl[c]], s.Y[nl[c]], s.Z[nl[c]]
		}
		vol := hexVolumeTable(&px, &py, &pz)
		s.Volo[e] = vol
		s.V[e] = 1
		s.Vnew[e] = 1
		s.ElemMass[e] = vol
		for c := 0; c < 8; c++ {
			s.NodalMass[nl[c]] += vol / 8
		}
	}
	return s
}

// sameBits reports whether a and b hold the same float64 values bit for
// bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestInitialState(t *testing.T) {
	for _, edge := range []int{2, 3, 6, 17} {
		m := NewMesh(edge)
		s, ref := NewState(m), newStateBruteForce(m)
		// Two states built from one mesh share none of its geometry.
		if s2 := NewState(m); &s2.X[0] == &s.X[0] || &s.X[0] == &m.X0[0] || &s.Volo[0] == &m.Volo[0] ||
			&s.ElemMass[0] == &m.Volo[0] || &s.NodalMass[0] == &m.NodalMass[0] {
			t.Fatalf("S=%d: a state aliases the mesh's reference geometry or another state", edge)
		}
		sv, rv := reflect.ValueOf(s).Elem(), reflect.ValueOf(ref).Elem()
		for i := 0; i < sv.NumField(); i++ {
			name := sv.Type().Field(i).Name
			switch f := sv.Field(i).Interface().(type) {
			case []float64:
				if !sameBits(f, rv.Field(i).Interface().([]float64)) {
					t.Fatalf("S=%d: %s differs from the brute-force initialization", edge, name)
				}
			case float64:
				if math.Float64bits(f) != math.Float64bits(rv.Field(i).Float()) {
					t.Fatalf("S=%d: %s = %v, brute force %v", edge, name, f, rv.Field(i).Float())
				}
			}
		}
	}

	s := NewState(NewMesh(6))
	// Total mass = domain volume = 1 (density 1 on the unit cube).
	mass := 0.0
	for _, m := range s.NodalMass {
		mass += m
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("total nodal mass = %g, want 1", mass)
	}
	// Reference volumes sum to 1.
	vol := 0.0
	for _, v := range s.Volo {
		vol += v
	}
	if math.Abs(vol-1) > 1e-9 {
		t.Errorf("total reference volume = %g, want 1", vol)
	}
	// The blast energy sits in element 0 only.
	if s.E[0] <= 0 {
		t.Error("no deposit in element 0")
	}
	for e := 1; e < len(s.E); e++ {
		if s.E[e] != 0 {
			t.Fatalf("element %d has initial energy", e)
		}
	}
	if s.Dt <= 0 {
		t.Error("non-positive initial dt")
	}
}

func TestPhysicsStability(t *testing.T) {
	p := NewProblem(Config{S: 8, Iters: 50}, timing.Double)
	s := NewState(p.Mesh)
	e0 := s.TotalEnergy()
	st := newStepper(s)
	d := &recDriver{rec: new(appcore.Recorder), functional: true}
	for i := 0; i < 50; i++ {
		st.step(d)
	}
	// Volumes stay positive and finite.
	for e, v := range s.V {
		if !(v > 0) || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("element %d volume = %g after 50 steps", e, v)
		}
	}
	// The shock does work: kinetic energy appears.
	ke := 0.0
	for n := range s.Xd {
		ke += 0.5 * s.NodalMass[n] * (s.Xd[n]*s.Xd[n] + s.Yd[n]*s.Yd[n] + s.Zd[n]*s.Zd[n])
	}
	if ke <= 0 {
		t.Error("no kinetic energy after 50 steps; blast did not move")
	}
	// Total energy drift bounded (the reduced scheme is dissipative but
	// must not blow up or vanish).
	e1 := s.TotalEnergy()
	if e1 <= 0 || e1 > 3*e0 || e1 < e0/3 {
		t.Errorf("total energy drifted %g → %g", e0, e1)
	}
	// Time advanced.
	if s.Time <= 0 {
		t.Error("simulation time did not advance")
	}
}

func TestAllModelsAgreeAndCount28Kernels(t *testing.T) {
	p := NewProblem(smallCfg(), timing.Double)
	var ref float64
	for i, model := range []modelapi.Name{modelapi.OpenMP, modelapi.OpenCL, modelapi.CppAMP, modelapi.OpenACC} {
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			m := mk()
			r := p.Run(m, model)
			if r.Kernels != 28 {
				t.Errorf("%s: kernels = %d, want 28 (Table I)", model, r.Kernels)
			}
			if i == 0 {
				ref = r.Checksum
			} else if r.Checksum != ref {
				t.Errorf("%s on %s: checksum %g, want %g", model, m.Name(), r.Checksum, ref)
			}
			if r.ElapsedNs <= 0 {
				t.Errorf("%s on %s: no time charged", model, m.Name())
			}
		}
	}
}

// Figure 9b shape: on the discrete GPU, OpenCL wins and C++ AMP suffers
// from the CPU-fallback kernel's per-iteration round trips.
func TestDGPUShapeOpenCLBestAMPWorst(t *testing.T) {
	p := NewProblem(Config{S: 16, Iters: 8}, timing.Double)
	base := p.RunOpenMP(sim.NewAPU())
	cl := p.RunOpenCL(sim.NewDGPU())
	amp := p.RunCppAMP(sim.NewDGPU())
	acc := p.RunOpenACC(sim.NewDGPU())

	sCL, sAMP, sACC := cl.SpeedupOver(base), amp.SpeedupOver(base), acc.SpeedupOver(base)
	if !(sCL > sACC && sACC > sAMP) {
		t.Errorf("dGPU LULESH ordering: OpenCL %.2f, OpenACC %.2f, AMP %.2f; want CL > ACC > AMP", sCL, sACC, sAMP)
	}
	if amp.TransferNs <= cl.TransferNs {
		t.Error("AMP fallback did not inflate transfer time over OpenCL")
	}
}

// Figure 8b shape: on the APU the three models are much closer; AMP does
// not pay the fallback penalty (unified memory).
func TestAPUShapeModelsClose(t *testing.T) {
	p := NewProblem(Config{S: 16, Iters: 8}, timing.Double)
	cl := p.RunOpenCL(sim.NewAPU())
	amp := p.RunCppAMP(sim.NewAPU())
	acc := p.RunOpenACC(sim.NewAPU())
	if amp.TransferNs != 0 || acc.TransferNs != 0 || cl.TransferNs != 0 {
		t.Error("APU charged transfer time")
	}
	// AMP within 2.5× of OpenCL on the APU (paper: "similar performance").
	if r := amp.ElapsedNs / cl.ElapsedNs; r > 2.5 {
		t.Errorf("APU AMP/OpenCL = %.2f, want close", r)
	}
}

func TestReplayedIterationsMatchFunctionalTiming(t *testing.T) {
	// A run with FunctionalIters=2 must charge the same simulated time
	// per iteration as a fully functional run (same costs replayed).
	full := NewProblem(Config{S: 6, Iters: 6}, timing.Double)
	fast := NewProblem(Config{S: 6, Iters: 6, FunctionalIters: 2}, timing.Double)
	tFull := full.RunOpenCL(sim.NewDGPU()).ElapsedNs
	tFast := fast.RunOpenCL(sim.NewDGPU()).ElapsedNs
	if math.Abs(tFull-tFast) > 0.02*tFull {
		t.Errorf("replayed run time %g differs from functional %g by >2%%", tFast, tFull)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{{S: 1, Iters: 1}, {S: 8, Iters: 0}, {S: 8, Iters: 1, FunctionalIters: -1}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if got := (Config{S: 8, Iters: 5}).functionalIters(); got != 5 {
		t.Errorf("default functional iters = %d, want all (5)", got)
	}
	if got := (Config{S: 8, Iters: 5, FunctionalIters: 9}).functionalIters(); got != 5 {
		t.Errorf("clamped functional iters = %d, want 5", got)
	}
}

func TestMeasuredTraitsInTable1Band(t *testing.T) {
	p := NewProblem(Config{S: 24, Iters: 1}, timing.Double)
	miss := p.MeasuredTraits(sim.NewDGPU())
	// Table I: LULESH LLC miss rate 11% — good locality. Accept a band.
	if miss < 0.01 || miss > 0.30 {
		t.Errorf("LULESH measured LLC miss rate = %.2f, want low (Table I: 0.11)", miss)
	}
}
