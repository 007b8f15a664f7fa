package xsbench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
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
	clAPU := p.Run(sim.NewAPU(), modelapi.OpenCL)
	ampAPU := p.Run(sim.NewAPU(), modelapi.CppAMP)
	accAPU := p.Run(sim.NewAPU(), modelapi.OpenACC)
	if !(ampAPU.ElapsedNs < clAPU.ElapsedNs && ampAPU.ElapsedNs < accAPU.ElapsedNs) {
		t.Errorf("APU: AMP %.3fms not best (CL %.3fms, ACC %.3fms)",
			ampAPU.ElapsedNs/1e6, clAPU.ElapsedNs/1e6, accAPU.ElapsedNs/1e6)
	}

	// dGPU: OpenCL best; AMP pays the table transfer twice.
	clD := p.Run(sim.NewDGPU(), modelapi.OpenCL)
	ampD := p.Run(sim.NewDGPU(), modelapi.CppAMP)
	accD := p.Run(sim.NewDGPU(), modelapi.OpenACC)
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
	ru := pu.Run(sim.NewDGPU(), modelapi.OpenCL)
	rn := pn.Run(sim.NewDGPU(), modelapi.OpenCL)
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
		{Nuclides: maxNuclides + 1, GridPoints: 10, Lookups: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

// TestMergedUnionGridMatchesSort holds generate's k-way merge to what it
// replaced, sorting the concatenated nuclide grids, bit for bit at the
// smoke, small and default tables.
func TestMergedUnionGridMatchesSort(t *testing.T) {
	for _, c := range []struct{ nuclides, gridPoints int }{{16, 512}, {32, 2048}, {48, 4096}} {
		tab := generate(c.nuclides, c.gridPoints)
		var want []float64
		for _, eg := range tab.NuclideEnergy {
			want = append(want, eg...)
		}
		sort.Float64s(want)
		if len(tab.UnionEnergy) != len(want) {
			t.Fatalf("%d×%d: union grid has %d points, want %d", c.nuclides, c.gridPoints, len(tab.UnionEnergy), len(want))
		}
		for i, e := range tab.UnionEnergy {
			if math.Float64bits(e) != math.Float64bits(want[i]) {
				t.Fatalf("%d×%d: union point %d is %v, sorted concatenation has %v", c.nuclides, c.gridPoints, i, e, want[i])
			}
		}
	}
	if got := mergeGrids([][]float64{{2}, {0, 1, 3}}); len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("mergeGrids of unequal grids = %v, want [0 1 2 3]", got)
	}
}

// TestLowerBoundMatchesSortSearch holds the inlined search to
// sort.SearchFloat64s on both grid types' searches (the unionized grid's
// one search, each nuclide's own) at energies 0 and 1, on every grid
// point and between every pair of neighbouring points.
func TestLowerBoundMatchesSortSearch(t *testing.T) {
	p := NewProblem(smallCfg(), timing.Double)
	energies := []float64{0, 1, -0.5, 1.5, math.NaN()}
	for i, e := range p.UnionEnergy {
		energies = append(energies, e)
		if i+1 < len(p.UnionEnergy) {
			energies = append(energies, (e+p.UnionEnergy[i+1])/2)
		}
	}
	for _, e := range energies {
		if got, want := lowerBound(p.UnionEnergy, e), sort.SearchFloat64s(p.UnionEnergy, e); got != want {
			t.Fatalf("unionized grid at %v: index %d, sort.SearchFloat64s %d", e, got, want)
		}
		for n, eg := range p.NuclideEnergy {
			want := sort.SearchFloat64s(eg, e)
			if got := lowerBound(eg, e); got != want {
				t.Fatalf("nuclide %d grid at %v: index %d, sort.SearchFloat64s %d", n, e, got, want)
			}
			if want > 0 && (want == len(eg) || eg[want] != e) {
				want--
			}
			if got := p.nuclideLowerBound(n, e); got != want {
				t.Fatalf("nuclide %d at %v: lower bound %d, want %d", n, e, got, want)
			}
		}
	}
}

// itemOrderPass is the lookup kernel with its lookups in the body: each
// work item runs its lookups in item order, sums their total cross
// sections and tallies the nuclides they visited. It returns the
// launch's counters in every view and the checksum over items, and is
// the oracle the energy-ordered pass is held to.
func itemOrderPass(p *Problem) (exec.Views, float64) {
	partial := make([]float64, p.items())
	logUnion := math.Log2(float64(len(p.UnionEnergy)))
	logNuclide := math.Log2(float64(p.Cfg.GridPoints))
	views := exec.Run(p.items(), func(w *exec.WorkItem) {
		var out [NumXS]float64
		sum := 0.0
		visited := 0
		for k := 0; k < lookupsPerItem; k++ {
			i := w.Global*lookupsPerItem + k
			energy, mat := p.lookupInputs(i)
			visited += p.LookupMacroXS(energy, mat, &out)
			sum += out[0]
		}
		partial[w.Global] = sum
		var probes, idxBytes float64
		if p.Cfg.Grid == UnionizedGrid {
			probes = float64(lookupsPerItem) * logUnion
			idxBytes = float64(visited) * 4
		} else {
			probes = float64(visited) * logNuclide
		}
		flops := float64(visited) * (4 + 3*NumXS)
		for _, prec := range appcore.Precisions {
			elt := appcore.EltBytes(prec)
			sp, dp := appcore.Flops(prec, flops)
			w.Tally(appcore.View(prec, 0, 1), exec.Counters{
				SPFlops: sp, DPFlops: dp,
				LoadBytes:  probes*elt + idxBytes + float64(visited)*2*(1+NumXS)*elt,
				StoreBytes: elt,
				Instrs:     probes*6 + float64(visited)*30,
			})
		}
	})
	return views, p.checksum(partial)
}

// TestEnergyOrderedPassMatchesItemOrder holds the functional pass, whose
// lookups run in energy-ordered blocks before the launch, to the
// item-order oracle bit for bit: the checksum and every view's counters.
// It covers both grid types, one lookup, part of one item, exactly one
// block, one block plus one item and several blocks, at GOMAXPROCS 1
// and 3.
func TestEnergyOrderedPassMatchesItemOrder(t *testing.T) {
	block := blockItems * lookupsPerItem
	tab := generate(16, 512)
	for _, procs := range []int{1, 3} {
		for _, grid := range []GridType{UnionizedGrid, NuclideGridOnly} {
			for _, lookups := range []int{1, 7, block, block + lookupsPerItem, 3*block + 5*lookupsPerItem + 3} {
				t.Run(fmt.Sprintf("procs=%d/%s/%d", procs, grid, lookups), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					p := &Problem{Cfg: Config{Nuclides: 16, GridPoints: 512, Lookups: lookups, Grid: grid}, Precision: timing.Double, Table: tab}
					want, wantSum := itemOrderPass(p)
					if sum := p.execute(new(appcore.Recorder)); math.Float64bits(sum) != math.Float64bits(wantSum) {
						t.Errorf("checksum %v, item order %v", sum, wantSum)
					}
					partial, visited := p.lookupAll()
					if sum := p.checksum(partial); math.Float64bits(sum) != math.Float64bits(wantSum) {
						t.Errorf("lookupAll checksum %v, item order %v", sum, wantSum)
					}
					got := exec.Run(p.items(), p.tally(visited))
					for v := range want {
						if got[v] != want[v] {
							t.Errorf("view %d: energy order %+v, item order %+v", v, got[v], want[v])
						}
					}
				})
			}
		}
	}
}

// TestChannelZeroPassMatchesFiveChannels holds lookupAll, whose lookups
// compute the total cross section alone, to the five-channel
// LookupMacroXS run item by item: every item's partial sum and visited
// count, bit for bit. It covers the smoke and small configs on both grid
// types at GOMAXPROCS 1 and 3.
func TestChannelZeroPassMatchesFiveChannels(t *testing.T) {
	for _, cfg := range []Config{
		{Nuclides: 16, GridPoints: 512, Lookups: 20_000},
		{Nuclides: 32, GridPoints: 2048, Lookups: 100_000},
	} {
		tab := generate(cfg.Nuclides, cfg.GridPoints)
		for _, grid := range []GridType{UnionizedGrid, NuclideGridOnly} {
			cfg.Grid = grid
			p := &Problem{Cfg: cfg, Precision: timing.Double, Table: tab}
			want := make([]float64, p.items())
			wantVisited := make([]uint16, p.items())
			var out [NumXS]float64
			for i := range p.Cfg.Lookups {
				energy, mat := p.lookupInputs(i)
				wantVisited[i/lookupsPerItem] += uint16(p.LookupMacroXS(energy, mat, &out))
				want[i/lookupsPerItem] += out[0]
			}
			for _, procs := range []int{1, 3} {
				t.Run(fmt.Sprintf("procs=%d/%d/%s", procs, cfg.Nuclides, grid), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					partial, visited := p.lookupAll()
					for i := range want {
						if math.Float64bits(partial[i]) != math.Float64bits(want[i]) || visited[i] != wantVisited[i] {
							t.Fatalf("item %d: partial %v, visited %d; five-channel %v, %d", i, partial[i], visited[i], want[i], wantVisited[i])
						}
					}
				})
			}
		}
	}
}
