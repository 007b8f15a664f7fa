package comd

import (
	"math"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

func smallCfg() Config { return Config{Nx: 4, Ny: 4, Nz: 4, Iters: 10} }

func TestLatticeSetup(t *testing.T) {
	s := NewState(smallCfg())
	if len(s.X) != 256 {
		t.Fatalf("atoms = %d, want 256 (4·4³)", len(s.X))
	}
	// All atoms inside the box.
	for i := range s.X {
		if s.X[i] < 0 || s.X[i] >= s.Lx || s.Y[i] < 0 || s.Y[i] >= s.Ly || s.Z[i] < 0 || s.Z[i] >= s.Lz {
			t.Fatalf("atom %d outside box", i)
		}
	}
	// Zero net momentum after initialization.
	if p := s.TotalMomentum(); p > 1e-10 {
		t.Errorf("net momentum = %g, want ≈0", p)
	}
	// Link cells cover every atom exactly once.
	if got := int(s.CellStart[s.numCells()]); got != len(s.X) {
		t.Errorf("cells cover %d atoms, want %d", got, len(s.X))
	}
}

func TestForceSymmetry(t *testing.T) {
	// Newton's third law: with all forces computed, net force ≈ 0.
	s := NewState(smallCfg())
	var fx, fy, fz float64
	for i := range s.X {
		a, b, c, _, _ := s.ljForceAtom(i)
		fx += a
		fy += b
		fz += c
	}
	if math.Abs(fx)+math.Abs(fy)+math.Abs(fz) > 1e-8 {
		t.Errorf("net force = (%g,%g,%g), want ≈0", fx, fy, fz)
	}
}

func TestFCCEquilibriumForcesSmall(t *testing.T) {
	// On a perfect FCC lattice at the equilibrium constant, per-atom
	// forces are near zero by symmetry (every atom is a lattice point).
	cfg := smallCfg()
	s := NewState(cfg)
	// Rebuild positions without velocity noise: forces depend only on
	// positions, which are exactly the lattice.
	fx, fy, fz, _, visited := s.ljForceAtom(37)
	if visited == 0 {
		t.Fatal("force loop visited no neighbors")
	}
	f := math.Sqrt(fx*fx + fy*fy + fz*fz)
	if f > 1e-8 {
		t.Errorf("lattice-point force = %g, want ≈0 by symmetry", f)
	}
}

func TestEnergyConservation(t *testing.T) {
	p := NewProblem(Config{Nx: 4, Ny: 4, Nz: 4, Iters: 50}, timing.Double)
	s := NewState(p.Cfg)
	// Need initial PE for the t=0 energy: compute forces once.
	for i := range s.X {
		fx, fy, fz, pe, _ := s.ljForceAtom(i)
		s.Fx[i], s.Fy[i], s.Fz[i], s.PE[i] = fx, fy, fz, pe
	}
	e0 := s.TotalEnergy()
	p.run(new(appcore.Recorder), s, false)
	e1 := s.TotalEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.01 {
		t.Errorf("energy drift over 50 steps = %.4f (E %g → %g), want <1%%", drift, e0, e1)
	}
	if pm := s.TotalMomentum(); pm > 1e-8 {
		t.Errorf("momentum after run = %g, want conserved ≈0", pm)
	}
}

func TestAllModelsAgree(t *testing.T) {
	p := NewProblem(smallCfg(), timing.Double)
	ref := p.Run(sim.NewAPU(), modelapi.OpenMP).Checksum
	for _, model := range []modelapi.Name{modelapi.OpenMP, modelapi.OpenCL, modelapi.CppAMP, modelapi.OpenACC} {
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			r := p.Run(mk(), model)
			if r.Kernels != 3 {
				t.Errorf("%s: kernels = %d, want 3 (Table I)", model, r.Kernels)
			}
			if r.Checksum != ref {
				t.Errorf("%s on %s: checksum %g, want %g", model, r.Machine, r.Checksum, ref)
			}
		}
	}
}

// Figure 8c/9c shape: OpenACC worst on both architectures (scalar
// fallback); OpenCL best; compute-bound so the dGPU scales far beyond the
// APU; DP much slower than SP.
func TestCoMDShapes(t *testing.T) {
	cfg := Config{Nx: 6, Ny: 6, Nz: 6, Iters: 5}
	dp := NewProblem(cfg, timing.Double)

	base := dp.RunOpenMP(sim.NewAPU())
	for _, machine := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
		cl := dp.RunOpenCL(machine())
		amp := dp.RunCppAMP(machine())
		acc := dp.RunOpenACC(machine())
		sCL, sAMP, sACC := cl.SpeedupOver(base), amp.SpeedupOver(base), acc.SpeedupOver(base)
		if !(sCL > sAMP && sAMP > sACC) {
			t.Errorf("%s: ordering CL %.2f > AMP %.2f > ACC %.2f violated", cl.Machine, sCL, sAMP, sACC)
		}
	}

	// Compute-bound: dGPU ≫ APU for OpenCL.
	clAPU := dp.RunOpenCL(sim.NewAPU())
	clDGPU := dp.RunOpenCL(sim.NewDGPU())
	if r := clAPU.ElapsedNs / clDGPU.ElapsedNs; r < 3 {
		t.Errorf("dGPU/APU CoMD advantage = %.2f×, want large (compute-bound)", r)
	}

	// SP vs DP: the APU's 1/16 DP rate must show a bigger gap than the
	// dGPU's 1/4 (Section VI-A).
	sp := NewProblem(cfg, timing.Single)
	gapAPU := dp.RunOpenCL(sim.NewAPU()).KernelNs / sp.RunOpenCL(sim.NewAPU()).KernelNs
	gapDGPU := dp.RunOpenCL(sim.NewDGPU()).KernelNs / sp.RunOpenCL(sim.NewDGPU()).KernelNs
	if gapAPU <= gapDGPU {
		t.Errorf("DP/SP gap APU %.2f not above dGPU %.2f", gapAPU, gapDGPU)
	}
	if gapDGPU < 1.3 {
		t.Errorf("dGPU DP/SP gap = %.2f, want ≥1.3 (1/4 DP rate)", gapDGPU)
	}
}

// Section VI-C: tiling (LDS staging) improves the force kernel by ≈3×.
// Needs enough atoms that launch overhead does not dominate.
func TestTilingAblation(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 16, Nz: 16, Iters: 2}
	p := NewProblem(cfg, timing.Single)

	flat := p.RunOpenCLFlat(sim.NewDGPU()).KernelNs
	tiled := p.RunOpenCL(sim.NewDGPU()).KernelNs
	if speedup := flat / tiled; speedup < 1.5 {
		t.Errorf("tiling speedup = %.2f×, want substantial (paper ≈3×)", speedup)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nx: 1, Ny: 4, Nz: 4, Iters: 1},
		{Nx: 4, Ny: 4, Nz: 4, Iters: 0},
		{Nx: 4, Ny: 4, Nz: 4, Iters: 1, FunctionalIters: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if (Config{Nx: 3, Ny: 3, Nz: 3}).NumAtoms() != 108 {
		t.Error("NumAtoms wrong")
	}
}

func TestMeasuredMissRateBand(t *testing.T) {
	// Needs a footprint well beyond the 768 KB L2 (the paper ran
	// 60³×4 ≈ 864k atoms; 24³×4 ≈ 55k atoms × 24 B ≈ 1.3 MB suffices
	// once concurrent-CU interleaving is modeled).
	s := NewState(Config{Nx: 24, Ny: 24, Nz: 24, Iters: 1})
	miss := s.MeasuredMissRate(sim.NewDGPU(), timing.Double)
	// Table I: CoMD 26% — moderate locality. Accept a generous band but
	// require it clearly above LULESH-like locality.
	if miss < 0.05 || miss > 0.6 {
		t.Errorf("CoMD measured LLC miss rate = %.3f, want moderate (Table I: 0.26)", miss)
	}
}
