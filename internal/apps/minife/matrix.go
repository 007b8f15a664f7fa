// Package minife implements the miniFE finite-element proxy application:
// assemble a sparse linear system from hexahedral elements on a 3-D
// structured mesh, then solve it with an un-preconditioned conjugate-
// gradient iteration whose device side is the paper's three kernels —
// SpMV (CSR-Adaptive on OpenCL/C++ AMP, scalar CSR under OpenACC), axpy
// (waxpby) and dot — making it the memory-bandwidth-bound member of the
// suite (Table I: 39% LLC miss rate, 0.88 IPC).
package minife

import (
	"fmt"
	"math"
)

// Config sizes a run: `-nx -ny -nz` elements per dimension, as in the
// paper's `./miniFE -nx 100 -ny 100 -nz 100`.
type Config struct {
	Nx, Ny, Nz int
	// MaxIters bounds the CG iteration (miniFE default 200).
	MaxIters int
	// Tol is the relative residual target.
	Tol float64
	// FunctionalIters: leading CG iterations that execute real math;
	// later iterations replay measured kernel costs (timing-only, for
	// paper-scale runs). Zero = all functional.
	FunctionalIters int
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if c.Nx < 2 || c.Ny < 2 || c.Nz < 2 {
		return fmt.Errorf("minife: mesh %dx%dx%d must be ≥2 per dim", c.Nx, c.Ny, c.Nz)
	}
	if c.MaxIters < 1 {
		return fmt.Errorf("minife: MaxIters=%d must be ≥1", c.MaxIters)
	}
	if c.Tol < 0 {
		return fmt.Errorf("minife: Tol=%g must be ≥0", c.Tol)
	}
	if c.FunctionalIters < 0 {
		return fmt.Errorf("minife: FunctionalIters=%d must be ≥0", c.FunctionalIters)
	}
	return nil
}

func (c Config) functionalIters() int {
	if c.FunctionalIters == 0 || c.FunctionalIters > c.MaxIters {
		return c.MaxIters
	}
	return c.FunctionalIters
}

// NumRows returns the unknown count ((nx+1)(ny+1)(nz+1) nodes).
func (c Config) NumRows() int { return (c.Nx + 1) * (c.Ny + 1) * (c.Nz + 1) }

// nnz returns the stored entry count: per dimension, the nodes' in-bounds
// neighbour counts sum to 3n+1.
func (c Config) nnz() int { return (3*c.Nx + 1) * (3*c.Ny + 1) * (3*c.Nz + 1) }

// The assembled system's row structure is its stencil: every node couples
// to the in-bounds nodes of its 3×3×3 neighbourhood, so a row's columns,
// in ascending order, are its in-bounds neighbour offsets in (z, y, x)
// lexicographic order. span, rowStart and appendRow give it without
// assembling anything.

// span returns the lowest neighbour offset of coordinate c on an axis of n
// elements, and how many offsets are in bounds: 2 at either end, else 3.
func span(c, n int) (lo, cnt int) {
	lo, cnt = -1, 3
	if c == 0 {
		lo, cnt = 0, 2
	}
	if c == n {
		cnt--
	}
	return lo, cnt
}

// spanBefore returns the in-bounds offsets of coordinates 0..c-1 on an
// axis of n elements: 2 for the first and 3 for each interior one, up to
// the axis total 3n+1.
func spanBefore(c, n int) int { return max(0, min(3*c-1, 3*n+1)) }

// coords returns row r's node coordinates.
func (c Config) coords(r int) (x, y, z int) {
	npx, npy := c.Nx+1, c.Ny+1
	return r % npx, r / npx % npy, r / (npx * npy)
}

// rowStart returns the index of row r's first stored entry, RowPtr[r] of
// the assembled CSR, for r in [0, NumRows]: the rows before r in z-, y-,
// x-major order, each holding the product of its axes' spans.
func (c Config) rowStart(r int) int {
	x, y, z := c.coords(r)
	_, nY := span(y, c.Ny)
	_, nZ := span(z, c.Nz)
	tx, ty := 3*c.Nx+1, 3*c.Ny+1
	return spanBefore(z, c.Nz)*ty*tx + nZ*(spanBefore(y, c.Ny)*tx+nY*spanBefore(x, c.Nx))
}

// appendRow appends the columns of node (x, y, z)'s row, ascending, to
// dst.
func (c Config) appendRow(dst []int32, x, y, z int) []int32 {
	npx, npy := c.Nx+1, c.Ny+1
	r := (z*npy+y)*npx + x
	loX, nX := span(x, c.Nx)
	loY, nY := span(y, c.Ny)
	loZ, nZ := span(z, c.Nz)
	for dz := loZ; dz < loZ+nZ; dz++ {
		for dy := loY; dy < loY+nY; dy++ {
			for dx := loX; dx < loX+nX; dx++ {
				dst = append(dst, int32(r+(dz*npy+dy)*npx+dx))
			}
		}
	}
	return dst
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	NumRows int
	RowPtr  []int32
	Cols    []int32
	Vals    []float64
}

// NNZ returns the stored-nonzero count.
func (a *CSR) NNZ() int { return len(a.Cols) }

// MulRow computes (A·x)[row].
func (a *CSR) MulRow(row int, x []float64) float64 {
	sum := 0.0
	for i := a.RowPtr[row]; i < a.RowPtr[row+1]; i++ {
		sum += a.Vals[i] * x[a.Cols[i]]
	}
	return sum
}

// hexStiffness is the 8×8 element stiffness matrix of the Laplace
// operator on a unit cube (trilinear elements, exact integration). The
// analytic entries depend only on the Manhattan distance between local
// nodes: diagonal 1/3, face-adjacent 0, edge-adjacent -1/12, and the
// body diagonal -1/12... using the standard result:
//
//	K[i][j] = (1/36h)·k(d) with k(0)=12, k(1)=0, k(2)=-3, k(3)=-3  (h=1)
//
// scaled so that row sums are zero (pure Neumann element); the assembled
// system adds a mass shift to stay positive definite.
var hexStiffness = buildHexStiffness()

func buildHexStiffness() (k [8][8]float64) {
	dx := [8]int{0, 1, 1, 0, 0, 1, 1, 0}
	dy := [8]int{0, 0, 1, 1, 0, 0, 1, 1}
	dz := [8]int{0, 0, 0, 0, 1, 1, 1, 1}
	// Exact trilinear Laplace stiffness on the unit cube: with σ =
	// number of differing coordinates between local nodes i and j,
	// K = (1/36)·{σ0: 12, σ1: 0, σ2: -3, σ3: -3} … this has zero row
	// sums and is symmetric.
	w := [4]float64{12, 0, -3, -3}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			d := 0
			if dx[i] != dx[j] {
				d++
			}
			if dy[i] != dy[j] {
				d++
			}
			if dz[i] != dz[j] {
				d++
			}
			k[i][j] = w[d] / 36
		}
	}
	return k
}

// massShift keeps the assembled operator positive definite (a Helmholtz
// term, standing in for miniFE's Dirichlet boundary rows).
const massShift = 0.1

// Assemble builds the CSR system A·x = b by summing element stiffness
// contributions (the "generated and assembled into a sparse matrix"
// phase of miniFE) plus a mass shift on the diagonal. b is the unit
// source vector.
//
// The row structure is the stencil (appendRow), known before any element
// is visited. Each element then adds its 8×8 stiffness into fixed slots,
// elements in z-, y-, x-major order, so every value is the same
// floating-point sum an entry-by-entry accumulation would produce.
func Assemble(cfg Config) (*CSR, []float64) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return assemble(cfg)
}

// assemble is Assemble without validation; any mesh of at least one
// element per dimension assembles.
func assemble(cfg Config) (*CSR, []float64) {
	npx, npy := cfg.Nx+1, cfg.Ny+1
	rows, nnz := cfg.NumRows(), cfg.nnz()
	a := &CSR{
		NumRows: rows,
		RowPtr:  make([]int32, rows+1),
		Cols:    make([]int32, 0, nnz),
		Vals:    make([]float64, nnz),
	}
	r := 0
	for z := 0; z <= cfg.Nz; z++ {
		for y := 0; y <= cfg.Ny; y++ {
			for x := 0; x <= cfg.Nx; x++ {
				a.Cols = cfg.appendRow(a.Cols, x, y, z)
				r++
				a.RowPtr[r] = int32(len(a.Cols))
			}
		}
	}

	// Element corners in the stiffness matrix's local order.
	cx := [8]int{0, 1, 1, 0, 0, 1, 1, 0}
	cy := [8]int{0, 0, 1, 1, 0, 0, 1, 1}
	cz := [8]int{0, 0, 0, 0, 1, 1, 1, 1}
	for ez := 0; ez < cfg.Nz; ez++ {
		for ey := 0; ey < cfg.Ny; ey++ {
			for ex := 0; ex < cfg.Nx; ex++ {
				for i := 0; i < 8; i++ {
					x, y, z := ex+cx[i], ey+cy[i], ez+cz[i]
					loX, nX := span(x, cfg.Nx)
					loY, nY := span(y, cfg.Ny)
					loZ, _ := span(z, cfg.Nz)
					// Corner j's slot in corner i's row is the rank of
					// their offset among the row's in-bounds offsets.
					sy, sz := nX, nX*nY
					base := int(a.RowPtr[(z*npy+y)*npx+x]) -
						(cz[i]+loZ)*sz - (cy[i]+loY)*sy - (cx[i] + loX)
					row := a.Vals[base:]
					for j := 0; j < 8; j++ {
						row[cz[j]*sz+cy[j]*sy+cx[j]] += hexStiffness[i][j]
					}
				}
			}
		}
	}
	// The diagonal is the centre offset of each row.
	r = 0
	for z := 0; z <= cfg.Nz; z++ {
		loZ, _ := span(z, cfg.Nz)
		for y := 0; y <= cfg.Ny; y++ {
			loY, nY := span(y, cfg.Ny)
			for x := 0; x <= cfg.Nx; x++ {
				loX, nX := span(x, cfg.Nx)
				a.Vals[int(a.RowPtr[r])-(loZ*nY+loY)*nX-loX] += massShift
				r++
			}
		}
	}

	// Spatially varying source (a constant b would be an eigenvector of
	// the shifted operator and CG would converge in one step).
	b := make([]float64, rows)
	for i := range b {
		b[i] = 1 + 0.5*math.Sin(float64(i)*0.37)
	}
	return a, b
}

// Residual returns ‖b − A·x‖₂.
func Residual(a *CSR, x, b []float64) float64 {
	sum := 0.0
	for r := 0; r < a.NumRows; r++ {
		d := b[r] - a.MulRow(r, x)
		sum += d * d
	}
	return math.Sqrt(sum)
}
