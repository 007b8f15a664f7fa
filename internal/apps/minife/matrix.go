// Package minife implements the miniFE finite-element proxy application:
// a sparse linear system from hexahedral elements on a 3-D structured
// mesh, solved with an un-preconditioned conjugate-gradient iteration
// whose device side is the paper's three kernels — SpMV (CSR-Adaptive on
// OpenCL/C++ AMP, scalar CSR under OpenACC), axpy (waxpby) and dot —
// making it the memory-bandwidth-bound member of the suite (Table I: 39%
// LLC miss rate, 0.88 IPC).
//
// The functional pass is matrix-free (operator), while pricing and
// characterization still model the CSR kernel the paper runs: its
// row-pointer, column, value and x-gather traffic, and its trace.
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

// NNZ returns the system matrix's stored entry count: per dimension,
// the nodes' in-bounds neighbour counts sum to 3n+1.
func (c Config) NNZ() int { return (3*c.Nx + 1) * (3*c.Ny + 1) * (3*c.Nz + 1) }

// The system's row structure is its stencil: every node couples to the
// in-bounds nodes of its 3×3×3 neighbourhood, so a row's columns, in
// ascending order, are its in-bounds neighbour offsets in (z, y, x)
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
	q := r / npx
	z = q / npy
	return r - q*npx, q - z*npy, z
}

// rowStart returns the index of row r's first stored entry, RowPtr[r] of
// the CSR the kernels model, for r in [0, NumRows]: the rows before r in
// z-, y-, x-major order, each holding the product of its axes' spans.
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

// massShift keeps the operator positive definite (a Helmholtz
// term, standing in for miniFE's Dirichlet boundary rows).
const massShift = 0.1

// operator applies the system matrix A without storing it. A row's
// values depend only on its node's class on each axis (low end, interior
// or high end): the node's elements sit at the same offsets, in the same
// z-, y-, x-major order, in every row of a class. So the elements are
// summed once on a template mesh of at most 2 elements per axis, whose
// rows are the mesh's row classes, and each row reads its class's
// values (the same floating-point sums a whole-mesh assembly makes) at
// its class's column offsets.
type operator struct {
	cfg, t Config // the mesh and its template
	// The template's rows (at most 3³ rows and 7³ stored entries), laid
	// out as t.rowStart places them: each entry's value and its column's
	// offset from its row on cfg's mesh. Template row tr's entries are
	// [start[tr], start[tr+1]).
	vals  [7 * 7 * 7]float64
	offs  [7 * 7 * 7]int
	start [3*3*3 + 1]int
}

// newOperator builds cfg's operator; any mesh of at least one element per
// dimension works.
func newOperator(cfg Config) *operator {
	t := Config{Nx: min(cfg.Nx, 2), Ny: min(cfg.Ny, 2), Nz: min(cfg.Nz, 2)}
	o := &operator{cfg: cfg, t: t}
	addRowValues(t, o.vals[:t.NNZ()])
	npx, npy := cfg.Nx+1, cfg.Ny+1
	for tr := range t.NumRows() {
		o.start[tr] = t.rowStart(tr)
		// A template node's spans are those of its class on the mesh.
		x, y, z := t.coords(tr)
		loX, nX := span(x, t.Nx)
		loY, nY := span(y, t.Ny)
		loZ, nZ := span(z, t.Nz)
		k := o.start[tr]
		for dz := loZ; dz < loZ+nZ; dz++ {
			for dy := loY; dy < loY+nY; dy++ {
				for dx := loX; dx < loX+nX; dx++ {
					o.offs[k] = (dz*npy+dy)*npx + dx
					k++
				}
			}
		}
	}
	o.start[t.NumRows()] = t.NNZ()
	return o
}

// class returns row r's class, its template row.
func (o *operator) class(r int) int {
	c, t := o.cfg, o.t
	x, y, z := c.coords(r)
	return (classNode(z, c.Nz)*(t.Ny+1)+classNode(y, c.Ny))*(t.Nx+1) + classNode(x, c.Nx)
}

// mulRow returns (A·x)[r], summed over the row's entries in ascending
// column order as a CSR row walk sums them, and the row's class.
func (o *operator) mulRow(r int, x []float64) (sum float64, class int) {
	class = o.class(r)
	vals := o.vals[o.start[class]:o.start[class+1]]
	offs := o.offs[o.start[class]:][:len(vals)]
	for k, v := range vals {
		sum += v * x[r+offs[k]]
	}
	return sum, class
}

// source returns entry i of the right-hand side b. It varies in space: a
// constant b would be an eigenvector of the shifted operator and CG would
// converge in one step.
func source(i int) float64 { return 1 + 0.5*math.Sin(float64(i)*0.37) }

// classNode maps coordinate c on an axis of n elements to the node of the
// same class on the template's axis of min(n, 2) elements: its low end,
// its interior node or its high end.
func classNode(c, n int) int {
	switch c {
	case 0:
		return 0
	case n:
		return min(n, 2)
	}
	return 1
}

// addRowValues adds the element stiffness, elements in z-, y-, x-major
// order, and then the mass shift on the diagonal into vals, the stored
// entries of cfg's matrix, rows laid out as rowStart places them.
func addRowValues(cfg Config, vals []float64) {
	npx, npy := cfg.Nx+1, cfg.Ny+1
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
					base := cfg.rowStart((z*npy+y)*npx+x) -
						(cz[i]+loZ)*sz - (cy[i]+loY)*sy - (cx[i] + loX)
					row := vals[base:]
					for j := 0; j < 8; j++ {
						row[cz[j]*sz+cy[j]*sy+cx[j]] += hexStiffness[i][j]
					}
				}
			}
		}
	}
	// The diagonal is the centre offset of each row.
	r := 0
	for z := 0; z <= cfg.Nz; z++ {
		loZ, _ := span(z, cfg.Nz)
		for y := 0; y <= cfg.Ny; y++ {
			loY, nY := span(y, cfg.Ny)
			for x := 0; x <= cfg.Nx; x++ {
				loX, nX := span(x, cfg.Nx)
				vals[cfg.rowStart(r)-(loZ*nY+loY)*nX-loX] += massShift
				r++
			}
		}
	}
}
