// Package comd implements the CoMD molecular-dynamics proxy application:
// Lennard-Jones atoms on an FCC lattice, link-cell neighbor search, and
// velocity-Verlet integration. Matching the paper's Table I, the device
// side consists of exactly 3 kernels — ljForce, advanceVelocity and
// advancePosition — with force computation taking >90% of the time, and
// the application is compute-bound with mediocre data locality (26% LLC
// miss rate).
//
// The force kernel exists in two forms: a flat per-atom gather (what the
// OpenACC compiler can express) and a tiled form that stages each cell's
// atoms through the local data store (the optimization that "improved the
// performance of CoMD by almost 3×" under C++ AMP, Section VI-C).
package comd

import (
	"fmt"
	"math"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// AppName identifies CoMD in results.
const AppName = "CoMD"

// Reduced Lennard-Jones units.
const (
	cutoff    = 2.5    // interaction cutoff (σ)
	latticeA  = 1.5874 // FCC lattice constant at equilibrium density
	dtStep    = 0.002  // velocity-Verlet timestep (τ)
	cellsKMax = 64     // max atoms per link cell the tiled kernel holds
)

// Config sizes a run: `-x -y -z` unit cells as in the paper's command line
// `./CoMD -x 60 -y 60 -z 60` (4 atoms per FCC cell).
type Config struct {
	Nx, Ny, Nz int
	Iters      int
	// FunctionalIters: leading iterations that execute physics; the rest
	// replay measured kernel costs. Zero = all functional.
	FunctionalIters int
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if c.Nx < 2 || c.Ny < 2 || c.Nz < 2 {
		return fmt.Errorf("comd: lattice %dx%dx%d must be ≥2 per dim", c.Nx, c.Ny, c.Nz)
	}
	if c.Iters < 1 {
		return fmt.Errorf("comd: Iters=%d must be ≥1", c.Iters)
	}
	if c.FunctionalIters < 0 {
		return fmt.Errorf("comd: FunctionalIters=%d must be ≥0", c.FunctionalIters)
	}
	return nil
}

func (c Config) functionalIters() int {
	if c.FunctionalIters == 0 || c.FunctionalIters > c.Iters {
		return c.Iters
	}
	return c.FunctionalIters
}

// NumAtoms returns 4·Nx·Ny·Nz.
func (c Config) NumAtoms() int { return 4 * c.Nx * c.Ny * c.Nz }

// State is the particle system plus link-cell structures.
type State struct {
	Cfg Config
	// Box dimensions (periodic).
	Lx, Ly, Lz float64

	// Per-atom fields.
	X, Y, Z    []float64
	Vx, Vy, Vz []float64
	Fx, Fy, Fz []float64
	PE         []float64 // per-atom potential energy (half-counted pairs)

	// Link cells: CellOf[i] is atom i's cell; CellStart/CellAtoms is the
	// CSR cell→atoms map; CellNeighbors lists 27 neighbor cells per cell.
	NCx, NCy, NCz int
	CellOf        []int32
	CellStart     []int32
	CellAtoms     []int32
	CellNeighbors []int32

	// boxes bounds each link cell's atoms at their positions when last
	// refreshed (refreshBoxes); ljForceAtom skips a neighbor cell whose
	// box lies beyond the cutoff.
	boxes []cellBox
}

// cellBox is the axis-aligned bounding box of one link cell's atoms. An
// empty cell's box is inverted (lo = +Inf, hi = −Inf), so no atom is
// within any distance of it.
type cellBox struct{ lo, hi [3]float64 }

// fcc basis offsets within one unit cell.
var fccBasis = [4][3]float64{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}

// NewState builds the FCC lattice with small deterministic thermal noise
// and zero net momentum.
func NewState(cfg Config) *State {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumAtoms()
	s := &State{
		Cfg: cfg,
		Lx:  float64(cfg.Nx) * latticeA,
		Ly:  float64(cfg.Ny) * latticeA,
		Lz:  float64(cfg.Nz) * latticeA,
		X:   make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		Vx: make([]float64, n), Vy: make([]float64, n), Vz: make([]float64, n),
		Fx: make([]float64, n), Fy: make([]float64, n), Fz: make([]float64, n),
		PE: make([]float64, n),
	}
	// Deterministic LCG for velocities.
	rng := uint64(12345)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11)/float64(1<<53) - 0.5
	}
	i := 0
	for cz := 0; cz < cfg.Nz; cz++ {
		for cy := 0; cy < cfg.Ny; cy++ {
			for cx := 0; cx < cfg.Nx; cx++ {
				for _, b := range fccBasis {
					s.X[i] = (float64(cx) + b[0]) * latticeA
					s.Y[i] = (float64(cy) + b[1]) * latticeA
					s.Z[i] = (float64(cz) + b[2]) * latticeA
					s.Vx[i] = 0.05 * next()
					s.Vy[i] = 0.05 * next()
					s.Vz[i] = 0.05 * next()
					i++
				}
			}
		}
	}
	// Remove net momentum.
	var mx, my, mz float64
	for i := 0; i < n; i++ {
		mx += s.Vx[i]
		my += s.Vy[i]
		mz += s.Vz[i]
	}
	for i := 0; i < n; i++ {
		s.Vx[i] -= mx / float64(n)
		s.Vy[i] -= my / float64(n)
		s.Vz[i] -= mz / float64(n)
	}

	s.NCx, s.NCy, s.NCz = cfg.cells()
	s.CellOf = make([]int32, n)
	s.buildNeighborTable()
	s.RebuildCells()
	return s
}

// cells returns the link-cell grid: cells at least one cutoff wide, and
// at least three per dimension.
func (c Config) cells() (x, y, z int) {
	fit := func(n int) int { return max(3, int(float64(n)*latticeA/cutoff)) }
	return fit(c.Nx), fit(c.Ny), fit(c.Nz)
}

func (c Config) numCells() int {
	x, y, z := c.cells()
	return x * y * z
}

func (s *State) numCells() int { return s.NCx * s.NCy * s.NCz }

func (s *State) cellIndex(x, y, z float64) int32 {
	wrap := func(v, l float64, n int) int {
		c := int(v / l * float64(n))
		if c < 0 {
			c = 0
		}
		if c >= n {
			c = n - 1
		}
		return c
	}
	cx := wrap(x, s.Lx, s.NCx)
	cy := wrap(y, s.Ly, s.NCy)
	cz := wrap(z, s.Lz, s.NCz)
	return int32((cz*s.NCy+cy)*s.NCx + cx)
}

func (s *State) buildNeighborTable() {
	nc := s.numCells()
	s.CellNeighbors = make([]int32, 27*nc)
	idx := 0
	for cz := 0; cz < s.NCz; cz++ {
		for cy := 0; cy < s.NCy; cy++ {
			for cx := 0; cx < s.NCx; cx++ {
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							nx := (cx + dx + s.NCx) % s.NCx
							ny := (cy + dy + s.NCy) % s.NCy
							nz := (cz + dz + s.NCz) % s.NCz
							s.CellNeighbors[idx] = int32((nz*s.NCy+ny)*s.NCx + nx)
							idx++
						}
					}
				}
			}
		}
	}
}

// RebuildCells reassigns atoms to link cells (host-side bookkeeping, as in
// CoMD's redistributeAtoms; periodic and cheap relative to force work).
func (s *State) RebuildCells() {
	n := len(s.X)
	nc := s.numCells()
	counts := make([]int32, nc+1)
	for i := 0; i < n; i++ {
		c := s.cellIndex(s.X[i], s.Y[i], s.Z[i])
		s.CellOf[i] = c
		counts[c+1]++
	}
	s.CellStart = make([]int32, nc+1)
	for c := 0; c < nc; c++ {
		s.CellStart[c+1] = s.CellStart[c] + counts[c+1]
	}
	s.CellAtoms = make([]int32, n)
	fill := make([]int32, nc)
	for i := 0; i < n; i++ {
		c := s.CellOf[i]
		s.CellAtoms[s.CellStart[c]+fill[c]] = int32(i)
		fill[c]++
	}
	s.refreshBoxes()
}

// refreshBoxes rebuilds every cell's bounding box from its atoms'
// current positions. Atoms drift, and position wraps an atom to the far
// side of the box while CellOf still names its old cell, so the boxes
// must be refreshed whenever positions change before the force kernel
// runs.
func (s *State) refreshBoxes() {
	if s.boxes == nil {
		s.boxes = make([]cellBox, s.numCells())
	}
	inf := math.Inf(1)
	for c := range s.boxes {
		b := cellBox{lo: [3]float64{inf, inf, inf}, hi: [3]float64{-inf, -inf, -inf}}
		for _, j := range s.CellAtoms[s.CellStart[c]:s.CellStart[c+1]] {
			x, y, z := s.X[j], s.Y[j], s.Z[j]
			b.lo = [3]float64{min(b.lo[0], x), min(b.lo[1], y), min(b.lo[2], z)}
			b.hi = [3]float64{max(b.hi[0], x), max(b.hi[1], y), max(b.hi[2], z)}
		}
		s.boxes[c] = b
	}
}

// minImage applies the periodic minimum-image convention.
func minImage(d, l float64) float64 {
	if d > l/2 {
		return d - l
	}
	if d < -l/2 {
		return d + l
	}
	return d
}

// boxSlack is the margin, relative to the box length, by which
// ljForceAtom shrinks its distance bound before skipping a cell. The
// rounding of the minimum-image differences and of the bound itself is
// a few ulps of the box length, about 1e-15 of it.
const boxSlack = 1e-9

// axisGap bounds |minImage(x−v, l)| from below for every v in [lo, hi]:
// minImage returns x−v shifted by −l, 0 or +l, so the bound is the
// distance from x to the nearest of the interval's three images.
func axisGap(x, lo, hi, l float64) float64 {
	g := max(0, lo-x, x-hi)
	g = min(g, max(0, lo-x+l, x-hi-l))
	g = min(g, max(0, lo-x-l, x-hi+l))
	return max(0, g-boxSlack*l)
}

// ljForceAtom computes the LJ force and energy on atom i against all
// neighbors within the cutoff, returning (fx, fy, fz, pe, pairsVisited).
// The potential is the truncated-and-shifted 12-6 LJ so that energy is
// continuous at the cutoff (bounded drift under Verlet integration).
//
// pairsVisited prices the kernel: it counts every other atom of the 27
// neighbor cells, which are distinct since each axis has at least 3
// cells. A cell whose bounding box lies beyond the cutoff holds no pair
// the sum would keep, so it is skipped unread; the pairs that remain are
// summed in the same order, so every result is bit-identical to a scan
// of all 27 cells. The boxes must be fresh (refreshBoxes).
func (s *State) ljForceAtom(i int) (fx, fy, fz, pe float64, visited int) {
	const rc2 = cutoff * cutoff
	// energy shift: 4(rc^-12 - rc^-6)
	ir6 := 1 / (rc2 * rc2 * rc2)
	eShift := 4 * (ir6*ir6 - ir6)

	xi, yi, zi := s.X[i], s.Y[i], s.Z[i]
	ci := s.CellOf[i]
	for _, cell := range s.CellNeighbors[int(ci)*27 : int(ci)*27+27] {
		lo, hi := s.CellStart[cell], s.CellStart[cell+1]
		visited += int(hi - lo)
		b := &s.boxes[cell]
		gx := axisGap(xi, b.lo[0], b.hi[0], s.Lx)
		gy := axisGap(yi, b.lo[1], b.hi[1], s.Ly)
		gz := axisGap(zi, b.lo[2], b.hi[2], s.Lz)
		if gx*gx+gy*gy+gz*gz >= rc2 {
			continue
		}
		for _, j := range s.CellAtoms[lo:hi] {
			if int(j) == i {
				continue
			}
			dx := minImage(xi-s.X[j], s.Lx)
			dy := minImage(yi-s.Y[j], s.Ly)
			dz := minImage(zi-s.Z[j], s.Lz)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			// F/r = 24(2 r^-12 - r^-6)/r²
			fOverR := 24 * (2*inv6*inv6 - inv6) * inv2
			fx += fOverR * dx
			fy += fOverR * dy
			fz += fOverR * dz
			pe += 0.5 * (4*(inv6*inv6-inv6) - eShift)
		}
	}
	return fx, fy, fz, pe, visited - 1
}

// TotalEnergy returns kinetic + potential energy (unit mass atoms).
func (s *State) TotalEnergy() float64 {
	ke, pe := 0.0, 0.0
	for i := range s.X {
		ke += 0.5 * (s.Vx[i]*s.Vx[i] + s.Vy[i]*s.Vy[i] + s.Vz[i]*s.Vz[i])
		pe += s.PE[i]
	}
	return ke + pe
}

// TotalMomentum returns the (conserved) net momentum magnitude.
func (s *State) TotalMomentum() float64 {
	var mx, my, mz float64
	for i := range s.X {
		mx += s.Vx[i]
		my += s.Vy[i]
		mz += s.Vz[i]
	}
	return math.Sqrt(mx*mx + my*my + mz*mz)
}

// ---------------------------------------------------------------------
// Characterization.

// Kernel names (Table I: "3 (LJ)").
const (
	KForce    = "ljForce"
	KVelocity = "advanceVelocity"
	KPosition = "advancePosition"
)

// forceTrace generates the force kernel's address trace: the neighbor-cell
// position reads of a sample of atoms, interleaved across `streams`
// concurrent positions to mimic the compute units walking distant parts of
// the box simultaneously (what actually determines GPU LLC behaviour).
func (s *State) forceTrace(elt, streams int, touch func(uint64)) {
	n := len(s.X)
	perStream := n / streams
	if perStream == 0 {
		perStream = 1
	}
	sample := 1 << 13
	if sample > n {
		sample = n
	}
	touched := 0
	for step := 0; touched < sample*80; step++ {
		emitted := false
		for w := 0; w < streams; w++ {
			idx := w*perStream + step
			if idx >= n || step >= perStream {
				continue
			}
			emitted = true
			i := s.CellAtoms[idx] // cell-sorted execution order
			c := s.CellOf[i]
			for k := 0; k < 27; k++ {
				cell := s.CellNeighbors[int(c)*27+k]
				for b := s.CellStart[cell]; b < s.CellStart[cell+1]; b++ {
					touch(uint64(s.CellAtoms[b]) * uint64(3*elt))
				}
				touched += int(s.CellStart[cell+1] - s.CellStart[cell])
			}
		}
		if !emitted {
			break
		}
	}
}

// characterization is the measured LLC behaviour of the three kernels
// on one device: the force-gather replay (miss rate, coalescing and
// per-access miss rate) and the streaming replay of the integrators.
type characterization struct {
	forceMiss, forceCoalesce, forceAccessMiss float64
	streamMiss, streamCoalesce                float64
}

func (s *State) characterize(m *sim.Machine, prec timing.Precision) (c characterization) {
	elt := int(appcore.EltBytes(prec))
	streams := concurrentStreams(m)
	c.forceMiss, c.forceCoalesce, c.forceAccessMiss = appcore.Traits(m.Accelerator(), 3*elt, func(touch func(uint64)) {
		s.forceTrace(elt, streams, touch)
	})
	c.streamMiss, c.streamCoalesce, _ = appcore.Traits(m.Accelerator(), elt, func(touch func(uint64)) {
		for i := 0; i < 1<<15; i++ {
			touch(uint64(i * elt))
		}
	})
	return c
}

// The kernels in functional-pass order; they index a run's specs.
const (
	kForce = iota
	kVelocity
	kPosition
)

// specs returns the three kernel specs, indexed by kernel.
func (c characterization) specs() *[3]modelapi.KernelSpec {
	return &[3]modelapi.KernelSpec{
		kForce:    {Name: KForce, Class: modelapi.Irregular, MissRate: c.forceMiss, Coalesce: c.forceCoalesce},
		kVelocity: {Name: KVelocity, Class: modelapi.Streaming, MissRate: c.streamMiss, Coalesce: c.streamCoalesce},
		kPosition: {Name: KPosition, Class: modelapi.Streaming, MissRate: c.streamMiss, Coalesce: c.streamCoalesce},
	}
}

// MeasuredMissRate reports the per-access LLC miss rate of the force
// gather (the Table I number: 26%).
func (s *State) MeasuredMissRate(m *sim.Machine, prec timing.Precision) float64 {
	return s.characterize(m, prec).forceAccessMiss
}

// concurrentStreams approximates how many independent wavefront positions
// walk the box at once: each CU keeps several waves resident (GCN runs up
// to 40; 8 is a typical active set under register pressure).
func concurrentStreams(m *sim.Machine) int {
	return m.Accelerator().ComputeUnits * 8
}
