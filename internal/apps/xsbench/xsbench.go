// Package xsbench implements the XSBench proxy application: macroscopic
// neutron cross-section lookups against a Hoogenboom-Martin-style reactor
// data set. A synthetic data generator reproduces the paper's structure —
// per-nuclide pointwise cross-section grids, a unionized energy grid with
// per-nuclide index pointers (the memory hog: the paper's `-s small`
// lookup table is 240 MB), and 12 materials with nuclide compositions.
//
// The device side is a single kernel (Table I): for each random
// (energy, material) pair, binary-search the unionized grid, then gather
// and interpolate the five cross sections of every nuclide in the
// material. The access pattern is as hostile as proxy apps get — the
// paper measures a 53% LLC miss rate and 0.14 IPC.
package xsbench

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// AppName identifies XSBench in results.
const AppName = "XSBench"

// NumXS is the number of cross-section channels per grid point (total,
// elastic, absorption, fission, nu-fission).
const NumXS = 5

// NumMaterials matches the H-M benchmark's 12 reactor materials.
const NumMaterials = 12

// GridType selects XSBench's lookup data structure.
type GridType int

const (
	// UnionizedGrid is the default: one sorted union of all nuclide
	// energy grids plus a per-nuclide index array — one binary search
	// per lookup, at a huge memory cost (the paper's 240 MB table).
	UnionizedGrid GridType = iota
	// NuclideGridOnly drops the index array: every nuclide in the
	// material is binary-searched separately. ~6× smaller tables,
	// ~n_nuclides× the search work — XSBench's classic memory/compute
	// trade, exercised by the `gridtype` ablation.
	NuclideGridOnly
)

// String names the grid type.
func (g GridType) String() string {
	if g == NuclideGridOnly {
		return "nuclide-grid"
	}
	return "unionized"
}

// Config sizes a run.
type Config struct {
	// Nuclides and GridPoints define the data set; the paper's `-s
	// small` is 68 nuclides × 11,303 points (≈240 MB with the unionized
	// index grid).
	Nuclides   int
	GridPoints int
	// Lookups is the number of (energy, material) queries.
	Lookups int
	// Grid selects the lookup structure (default UnionizedGrid).
	Grid GridType
}

// PaperSmall returns the paper's `-s small` configuration.
func PaperSmall() Config {
	return Config{Nuclides: 68, GridPoints: 11303, Lookups: 15_000_000}
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if c.Nuclides < 1 || c.GridPoints < 2 || c.Lookups < 1 {
		return fmt.Errorf("xsbench: invalid config %+v", c)
	}
	return nil
}

// TableBytes returns the resident data-set size: nuclide grids plus —
// for the unionized structure — the union energy grid and its per-nuclide
// index pointers.
func (c Config) TableBytes(prec timing.Precision) int64 {
	elt := int64(appcore.EltBytes(prec))
	nGrid := int64(c.Nuclides) * int64(c.GridPoints)
	nuclideGrids := nGrid * (1 + NumXS) * elt // energy + 5 XS
	if c.Grid == NuclideGridOnly {
		return nuclideGrids
	}
	unionEnergies := nGrid * elt
	indexGrid := nGrid * int64(c.Nuclides) * 4 // int32 pointers
	return nuclideGrids + unionEnergies + indexGrid
}

// Table is the synthetic H-M data set. It depends on the nuclide count
// and grid size alone, and nothing writes it after it is generated, so a
// run memo shares one among all the problems that have those two.
type Table struct {
	// NuclideEnergy[n][g] is nuclide n's sorted energy grid;
	// NuclideXS[n][g*NumXS+c] its cross sections.
	NuclideEnergy [][]float64
	NuclideXS     [][]float64
	// UnionEnergy is the sorted union of all nuclide grids; UnionIndex
	// gives, per union point, each nuclide's grid position just below it.
	UnionEnergy []float64
	UnionIndex  []int32 // len = len(UnionEnergy) * Nuclides
	// Material compositions: nuclide ids and number densities.
	MatNuclides [][]int32
	MatDensity  [][]float64
}

// Problem holds a lookup configuration and its data set. NewProblem
// generates the table; a Problem literal with Cfg, Precision (and Memo)
// set takes it on first need, so a run whose characterization and
// functional pass both hit the run memo never builds the cross-section
// table.
type Problem struct {
	Cfg       Config
	Precision timing.Precision
	// Memo, when set, shares the table with every problem of the same
	// Nuclides and GridPoints in the run, the characterization with every
	// problem of the same Cfg and Precision, and the functional pass with
	// every problem of the same Cfg; nil computes on every call.
	Memo *appcore.Memo

	build sync.Once

	*Table
}

// NewProblem generates the synthetic H-M data set deterministically.
func NewProblem(cfg Config, prec timing.Precision) *Problem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Problem{Cfg: cfg, Precision: prec}
	p.data()
	return p
}

// tableKey keys the table in a run memo: everything generate reads.
type tableKey struct{ nuclides, gridPoints int }

// data takes the table from the run memo on first need; LookupMacroXS
// and the kernel body read it afterwards.
func (p *Problem) data() {
	p.build.Do(func() {
		if p.Table == nil {
			key := tableKey{p.Cfg.Nuclides, p.Cfg.GridPoints}
			p.Table = appcore.Memoize(p.Memo, key, func() *Table { return generate(key.nuclides, key.gridPoints) })
		}
	})
}

// generate builds the synthetic H-M data set deterministically from a
// fixed xorshift stream.
func generate(nuclides, gridPoints int) *Table {
	t := &Table{}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng>>11) / float64(1<<53)
	}

	// Per-nuclide grids: sorted random energies in (0,1), smooth-ish XS.
	t.NuclideEnergy = make([][]float64, nuclides)
	t.NuclideXS = make([][]float64, nuclides)
	for n := 0; n < nuclides; n++ {
		eg := make([]float64, gridPoints)
		for g := range eg {
			eg[g] = next()
		}
		sort.Float64s(eg)
		// Guarantee full coverage of the lookup domain.
		eg[0], eg[len(eg)-1] = 0, 1
		xs := make([]float64, gridPoints*NumXS)
		for g := 0; g < gridPoints; g++ {
			base := 1 + math.Sin(float64(n)+eg[g]*20)*0.5
			for c := 0; c < NumXS; c++ {
				xs[g*NumXS+c] = base * (1 + 0.1*float64(c))
			}
		}
		t.NuclideEnergy[n] = eg
		t.NuclideXS[n] = xs
	}

	// Unionized grid.
	total := nuclides * gridPoints
	t.UnionEnergy = make([]float64, 0, total)
	for n := range t.NuclideEnergy {
		t.UnionEnergy = append(t.UnionEnergy, t.NuclideEnergy[n]...)
	}
	sort.Float64s(t.UnionEnergy)
	t.UnionIndex = make([]int32, len(t.UnionEnergy)*nuclides)
	// Two-pointer sweep: for each union point, each nuclide's bracketing
	// lower index.
	ptr := make([]int32, nuclides)
	for u, e := range t.UnionEnergy {
		for n := 0; n < nuclides; n++ {
			eg := t.NuclideEnergy[n]
			for int(ptr[n])+1 < len(eg) && eg[ptr[n]+1] <= e {
				ptr[n]++
			}
			t.UnionIndex[u*nuclides+n] = ptr[n]
		}
	}

	// Materials: H-M-like sizes (fuel has the most nuclides).
	sizes := materialSizes(nuclides)
	t.MatNuclides = make([][]int32, NumMaterials)
	t.MatDensity = make([][]float64, NumMaterials)
	for m := 0; m < NumMaterials; m++ {
		k := sizes[m]
		ids := make([]int32, k)
		dens := make([]float64, k)
		for i := 0; i < k; i++ {
			ids[i] = int32(int(next()*float64(nuclides))) % int32(nuclides)
			dens[i] = 0.1 + next()
		}
		t.MatNuclides[m] = ids
		t.MatDensity[m] = dens
	}
	return t
}

// materialSizes apportions nuclide counts across the 12 materials in
// H-M-like proportions (fuel ≈ half the nuclide set, others small).
func materialSizes(nuclides int) [NumMaterials]int {
	var s [NumMaterials]int
	frac := [NumMaterials]float64{0.5, 0.08, 0.06, 0.06, 0.4, 0.3, 0.1, 0.05, 0.06, 0.1, 0.1, 0.13}
	for i, f := range frac {
		s[i] = int(f * float64(nuclides))
		if s[i] < 1 {
			s[i] = 1
		}
	}
	return s
}

// LookupMacroXS computes the macroscopic cross sections for (energy, mat)
// using the configured grid structure; both structures produce identical
// results (the nuclide-grid path just finds each bracketing index by its
// own binary search). Reports how many nuclides were visited.
func (p *Problem) LookupMacroXS(energy float64, mat int, out *[NumXS]float64) int {
	var u int
	if p.Cfg.Grid == UnionizedGrid {
		// One binary search: largest union index with energy ≤ query.
		u = sort.SearchFloat64s(p.UnionEnergy, energy)
		if u > 0 {
			u--
		}
	}
	for c := range out {
		out[c] = 0
	}
	ids := p.MatNuclides[mat]
	dens := p.MatDensity[mat]
	for i, n := range ids {
		var g int
		if p.Cfg.Grid == UnionizedGrid {
			g = int(p.UnionIndex[u*p.Cfg.Nuclides+int(n)])
		} else {
			g = p.nuclideLowerBound(int(n), energy)
		}
		eg := p.NuclideEnergy[n]
		if g+1 >= len(eg) {
			g = len(eg) - 2
		}
		e0, e1 := eg[g], eg[g+1]
		f := 0.0
		if e1 > e0 {
			f = (energy - e0) / (e1 - e0)
		}
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		xs := p.NuclideXS[n]
		d := dens[i]
		for c := 0; c < NumXS; c++ {
			lo, hi := xs[g*NumXS+c], xs[(g+1)*NumXS+c]
			out[c] += d * (lo + f*(hi-lo))
		}
	}
	return len(ids)
}

// nuclideLowerBound returns the largest index g with
// NuclideEnergy[n][g] ≤ energy (the per-nuclide binary search of the
// nuclide-grid structure).
func (p *Problem) nuclideLowerBound(n int, energy float64) int {
	g := sort.SearchFloat64s(p.NuclideEnergy[n], energy)
	if g > 0 && (g == len(p.NuclideEnergy[n]) || p.NuclideEnergy[n][g] != energy) {
		g--
	}
	return g
}

// lookupInputs deterministically generates the i-th (energy, material)
// query, biased toward fuel like XSBench's picker.
func (p *Problem) lookupInputs(i int) (float64, int) {
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	energy := float64(h>>11) / float64(1<<53)
	m := int((h>>3)%100) % NumMaterials
	// H-M lookup distribution favors fuel (material 0).
	if (h>>13)%100 < 40 {
		m = 0
	}
	return energy, m
}

// Trace generates a sampled address trace of the lookup kernel for LLC
// characterization, calling touch with each address: the binary-search
// probes of the union grid plus the scattered index-grid and nuclide-grid
// reads.
func (p *Problem) Trace(samples int, touch func(uint64)) {
	p.data()
	elt := uint64(appcore.EltBytes(p.Precision))
	nGrid := uint64(p.Cfg.Nuclides) * uint64(p.Cfg.GridPoints)
	unionBase := uint64(0)
	indexBase := nGrid * elt
	nuclideBase := indexBase + nGrid*uint64(p.Cfg.Nuclides)*4

	for i := 0; i < samples; i++ {
		energy, mat := p.lookupInputs(i)
		rec := (1 + NumXS) * elt
		if p.Cfg.Grid == UnionizedGrid {
			// One binary search over the union grid.
			lo, hi := 0, len(p.UnionEnergy)
			for lo < hi {
				mid := (lo + hi) / 2
				touch(unionBase + uint64(mid)*elt)
				if p.UnionEnergy[mid] < energy {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			u := lo
			if u > 0 {
				u--
			}
			for _, n := range p.MatNuclides[mat] {
				// index-grid pointer
				touch(indexBase + (uint64(u)*uint64(p.Cfg.Nuclides)+uint64(n))*4)
				g := uint64(p.UnionIndex[u*p.Cfg.Nuclides+int(n)])
				off := nuclideBase + uint64(n)*uint64(p.Cfg.GridPoints)*rec
				touch(off + g*rec)
				touch(off + (g+1)*rec)
			}
			continue
		}
		// Nuclide-grid structure: one binary search per nuclide, no
		// index array.
		for _, n := range p.MatNuclides[mat] {
			eg := p.NuclideEnergy[n]
			off := nuclideBase + uint64(n)*uint64(p.Cfg.GridPoints)*rec
			lo, hi := 0, len(eg)
			for lo < hi {
				mid := (lo + hi) / 2
				touch(off + uint64(mid)*rec)
				if eg[mid] < energy {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			g := uint64(p.nuclideLowerBound(int(n), energy))
			touch(off + g*rec)
			touch(off + (g+1)*rec)
		}
	}
}

// charKey keys the characterization in a run memo: the data set, the
// element size and the LLC geometry are everything the trace depends on.
type charKey struct {
	cfg  Config
	prec timing.Precision
	geom appcore.Geometry
}

// traits is one replay of the lookup trace: the timing traits and the
// per-access miss rate together.
type traits struct{ miss, coalesce, accessMiss float64 }

// characterize replays the lookup trace through the machine's
// accelerator LLC, once per run memo.
func (p *Problem) characterize(m *sim.Machine) traits {
	dev := m.Accelerator()
	key := charKey{p.Cfg, p.Precision, appcore.GeometryOf(dev)}
	return appcore.Memoize(p.Memo, key, func() (t traits) {
		t.miss, t.coalesce, t.accessMiss = appcore.Traits(dev, int(appcore.EltBytes(p.Precision)), func(touch func(uint64)) {
			p.Trace(4096, touch)
		})
		return t
	})
}

// Specs builds the single kernel's spec from a trace replay on the
// machine's accelerator LLC.
func (p *Problem) Specs(m *sim.Machine) modelapi.KernelSpec {
	t := p.characterize(m)
	return modelapi.KernelSpec{Name: "macroXSLookup", Class: modelapi.Irregular, MissRate: t.miss, Coalesce: t.coalesce}
}

// MeasuredMissRate reports the per-access LLC miss rate (Table I: 53%).
func (p *Problem) MeasuredMissRate(m *sim.Machine) float64 {
	return p.characterize(m).accessMiss
}
