package xsbench

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

func smallCfg() Config { return Config{Nuclides: 16, GridPoints: 512, Lookups: 20000} }

func TestDataSetStructure(t *testing.T) {
	p := NewProblem(smallCfg(), timing.Double)
	// Nuclide grids sorted, covering [0,1].
	for n, eg := range p.NuclideEnergy {
		if !sort.Float64sAreSorted(eg) {
			t.Fatalf("nuclide %d grid unsorted", n)
		}
		if eg[0] != 0 || eg[len(eg)-1] != 1 {
			t.Fatalf("nuclide %d grid does not span [0,1]", n)
		}
	}
	// Union grid sorted with the right length.
	if len(p.UnionEnergy) != 16*512 {
		t.Fatalf("union grid len %d, want %d", len(p.UnionEnergy), 16*512)
	}
	if !sort.Float64sAreSorted(p.UnionEnergy) {
		t.Fatal("union grid unsorted")
	}
	// Materials present with nonzero compositions.
	if len(p.MatNuclides) != NumMaterials {
		t.Fatalf("materials = %d, want %d", len(p.MatNuclides), NumMaterials)
	}
	for m := range p.MatNuclides {
		if len(p.MatNuclides[m]) == 0 {
			t.Fatalf("material %d empty", m)
		}
	}
}

// The index grid must agree with a direct per-nuclide binary search.
func TestUnionIndexCorrect(t *testing.T) {
	p := NewProblem(Config{Nuclides: 8, GridPoints: 128, Lookups: 1}, timing.Double)
	for u := 0; u < len(p.UnionEnergy); u += 97 {
		e := p.UnionEnergy[u]
		for n := 0; n < p.Cfg.Nuclides; n++ {
			eg := p.NuclideEnergy[n]
			want := sort.SearchFloat64s(eg, e)
			// SearchFloat64s returns first ≥ e; our index is last ≤ e.
			if want < len(eg) && eg[want] == e {
				// exact hit: index points at it
			} else {
				want--
			}
			if want < 0 {
				want = 0
			}
			got := int(p.UnionIndex[u*p.Cfg.Nuclides+n])
			if got != want {
				t.Fatalf("union %d nuclide %d: index %d, want %d", u, n, got, want)
			}
		}
	}
}

// Interpolated XS at an exact grid point equals the stored value.
func TestLookupInterpolatesExactPoints(t *testing.T) {
	p := NewProblem(Config{Nuclides: 4, GridPoints: 64, Lookups: 1}, timing.Double)
	n := 2
	g := 13
	e := p.NuclideEnergy[n][g]
	// Material holding only nuclide n with density 1.
	p.MatNuclides[0] = []int32{int32(n)}
	p.MatDensity[0] = []float64{1}
	var out [NumXS]float64
	p.LookupMacroXS(e, 0, &out)
	for c := 0; c < NumXS; c++ {
		want := p.NuclideXS[n][g*NumXS+c]
		if math.Abs(out[c]-want) > 1e-12 {
			t.Fatalf("channel %d: %g, want %g", c, out[c], want)
		}
	}
}

func TestQuickLookupBounds(t *testing.T) {
	p := NewProblem(Config{Nuclides: 6, GridPoints: 64, Lookups: 1}, timing.Double)
	f := func(seed uint32) bool {
		e := float64(seed) / float64(1<<32)
		mat := int(seed) % NumMaterials
		var out [NumXS]float64
		p.LookupMacroXS(e, mat, &out)
		// Macro XS must be positive and finite: all nuclide XS are
		// in (0.4, 1.9) and densities in (0.1, 1.1).
		for _, v := range out {
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPaperSmallTableIs240MB(t *testing.T) {
	bytes := PaperSmall().TableBytes(timing.Double)
	mb := float64(bytes) / (1 << 20)
	if mb < 200 || mb > 280 {
		t.Errorf("paper-small table = %.0f MB, want ≈240 (paper Section VI-A)", mb)
	}
}

func TestAllModelsAgree(t *testing.T) {
	p := NewProblem(smallCfg(), timing.Double)
	ref := p.Run(sim.NewAPU(), modelapi.OpenMP).Checksum
	for _, model := range []modelapi.Name{modelapi.OpenMP, modelapi.OpenCL, modelapi.CppAMP, modelapi.OpenACC} {
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			r := p.Run(mk(), model)
			if r.Kernels != 1 {
				t.Errorf("%s: kernels = %d, want 1 (Table I)", model, r.Kernels)
			}
			if r.Checksum != ref {
				t.Errorf("%s on %s: checksum %g, want %g", model, r.Machine, r.Checksum, ref)
			}
		}
	}
}

// Figure 8d/9d shapes: AMP best on the APU; OpenCL ~2× the others on the
// dGPU (table transfer dominates; AMP pays it twice).
func TestXSBenchShapes(t *testing.T) {
	// Bigger table so the transfer matters, modest lookups for speed.
	cfg := Config{Nuclides: 32, GridPoints: 2048, Lookups: 60000}
	p := NewProblem(cfg, timing.Double)

	// APU: AMP wins (HSA pointers beat Catalyst OpenCL on this
	// irregular kernel).
	clAPU := p.RunOpenCL(sim.NewAPU())
	ampAPU := p.RunCppAMP(sim.NewAPU())
	accAPU := p.RunOpenACC(sim.NewAPU())
	if !(ampAPU.ElapsedNs < clAPU.ElapsedNs && ampAPU.ElapsedNs < accAPU.ElapsedNs) {
		t.Errorf("APU: AMP %.3fms not best (CL %.3fms, ACC %.3fms)",
			ampAPU.ElapsedNs/1e6, clAPU.ElapsedNs/1e6, accAPU.ElapsedNs/1e6)
	}

	// dGPU: OpenCL best; AMP pays the table transfer twice.
	clD := p.RunOpenCL(sim.NewDGPU())
	ampD := p.RunCppAMP(sim.NewDGPU())
	accD := p.RunOpenACC(sim.NewDGPU())
	if !(clD.ElapsedNs < ampD.ElapsedNs && clD.ElapsedNs < accD.ElapsedNs) {
		t.Errorf("dGPU: OpenCL %.3fms not best (AMP %.3fms, ACC %.3fms)",
			clD.ElapsedNs/1e6, ampD.ElapsedNs/1e6, accD.ElapsedNs/1e6)
	}
	if ampD.TransferNs < 1.8*clD.TransferNs {
		t.Errorf("dGPU AMP transfer %.3fms not ≈2× OpenCL's %.3fms",
			ampD.TransferNs/1e6, clD.TransferNs/1e6)
	}
	// AMP must be worse on the dGPU than the APU *relative to OpenCL*
	// ("C++ AMP resulted in poor performance on the discrete GPU ...
	// atypical for a compute bound application").
	relAPU := ampAPU.ElapsedNs / clAPU.ElapsedNs
	relD := ampD.ElapsedNs / clD.ElapsedNs
	if relD <= relAPU {
		t.Errorf("AMP/OpenCL ratio dGPU %.2f not above APU %.2f", relD, relAPU)
	}
}

func TestMeasuredMissRateHigh(t *testing.T) {
	// Table I: 53% — the worst locality in the suite. The data set must
	// exceed the LLC for this to show.
	p := NewProblem(Config{Nuclides: 32, GridPoints: 4096, Lookups: 1}, timing.Double)
	miss := p.MeasuredMissRate(sim.NewDGPU())
	if miss < 0.3 {
		t.Errorf("XSBench measured LLC miss rate = %.3f, want high (Table I: 0.53)", miss)
	}
}

// Both grid structures must produce bit-identical lookups (the
// nuclide-grid binary search finds the same bracketing interval the
// unionized index encodes).
func TestGridTypesAgree(t *testing.T) {
	cfgU := Config{Nuclides: 12, GridPoints: 256, Lookups: 5000}
	cfgN := cfgU
	cfgN.Grid = NuclideGridOnly
	pu := NewProblem(cfgU, timing.Double)
	pn := NewProblem(cfgN, timing.Double)
	for i := 0; i < 2000; i++ {
		e, mat := pu.lookupInputs(i)
		var a, b [NumXS]float64
		pu.LookupMacroXS(e, mat, &a)
		pn.LookupMacroXS(e, mat, &b)
		if a != b {
			t.Fatalf("lookup %d: unionized %v != nuclide-grid %v", i, a, b)
		}
	}
	// End-to-end checksums agree too.
	ru := pu.RunOpenCL(sim.NewDGPU())
	rn := pn.RunOpenCL(sim.NewDGPU())
	if math.Abs(ru.Checksum-rn.Checksum) > 1e-9*math.Abs(ru.Checksum) {
		t.Errorf("checksums differ: %g vs %g", ru.Checksum, rn.Checksum)
	}
}

func TestGridTypeTableSizes(t *testing.T) {
	cfg := PaperSmall()
	union := cfg.TableBytes(timing.Double)
	cfg.Grid = NuclideGridOnly
	nuc := cfg.TableBytes(timing.Double)
	if nuc*3 > union {
		t.Errorf("nuclide-grid table %d not ≪ unionized %d", nuc, union)
	}
	if UnionizedGrid.String() == "" || NuclideGridOnly.String() == "" {
		t.Error("GridType.String empty")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nuclides: 0, GridPoints: 10, Lookups: 1},
		{Nuclides: 1, GridPoints: 1, Lookups: 1},
		{Nuclides: 1, GridPoints: 10, Lookups: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}
