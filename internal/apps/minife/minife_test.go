package minife

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

func smallCfg() Config { return Config{Nx: 8, Ny: 8, Nz: 8, MaxIters: 200, Tol: 1e-8} }

func TestStiffnessMatrixProperties(t *testing.T) {
	k := hexStiffness
	for i := 0; i < 8; i++ {
		// Symmetry.
		for j := 0; j < 8; j++ {
			if k[i][j] != k[j][i] {
				t.Fatalf("stiffness not symmetric at (%d,%d)", i, j)
			}
		}
		// Zero row sums (pure Laplace element).
		sum := 0.0
		for j := 0; j < 8; j++ {
			sum += k[i][j]
		}
		if math.Abs(sum) > 1e-14 {
			t.Fatalf("row %d sum = %g, want 0", i, sum)
		}
		if k[i][i] <= 0 {
			t.Fatalf("diagonal %d not positive", i)
		}
	}
}

func TestAssembly(t *testing.T) {
	c := Config{Nx: 4, Ny: 4, Nz: 4, MaxIters: 1}
	o := newOperator(c)
	if c.NumRows() != 125 {
		t.Fatalf("rows = %d, want 125", c.NumRows())
	}
	// Interior node: 27-point stencil.
	// node (2,2,2) of a 5³ grid = (2*5+2)*5+2 = 62.
	if cols, _ := rowOf(o, 62); len(cols) != 27 {
		t.Errorf("interior row nnz = %d, want 27", len(cols))
	}
	// Corner node: 8 entries.
	if cols, _ := rowOf(o, 0); len(cols) != 8 {
		t.Errorf("corner row nnz = %d, want 8", len(cols))
	}
	// Symmetric positive definite-ish: diagonal dominance direction —
	// row sums equal the mass shift.
	for r := 0; r < c.NumRows(); r++ {
		cols, vals := rowOf(o, r)
		sum := 0.0
		diag := 0.0
		for i, v := range vals {
			sum += v
			if int(cols[i]) == r {
				diag = v
			}
		}
		if math.Abs(sum-massShift) > 1e-12 {
			t.Fatalf("row %d sum = %g, want %g", r, sum, massShift)
		}
		if diag <= 0 {
			t.Fatalf("row %d diagonal %g not positive", r, diag)
		}
		// Columns sorted (CSR invariant for the adaptive kernel).
		for i := 1; i < len(cols); i++ {
			if cols[i-1] >= cols[i] {
				t.Fatalf("row %d columns unsorted", r)
			}
		}
	}
}

// rowOf returns row r of o: its columns, ascending, and their values.
func rowOf(o *operator, r int) (cols []int32, vals []float64) {
	c := o.class(r)
	for k := o.start[c]; k < o.start[c+1]; k++ {
		cols = append(cols, int32(r+o.offs[k]))
		vals = append(vals, o.vals[k])
	}
	return cols, vals
}

// csr is the reference matrix the operator is checked against.
type csr struct {
	rowPtr []int32
	cols   []int32
	vals   []float64
}

// mulRow computes (A·x)[r] by a CSR row walk.
func (a *csr) mulRow(r int, x []float64) float64 {
	sum := 0.0
	for i := a.rowPtr[r]; i < a.rowPtr[r+1]; i++ {
		sum += a.vals[i] * x[a.cols[i]]
	}
	return sum
}

// assembleWithMaps is the reference assembly: per-row maps accumulate
// each element's stiffness in element order, then every row's columns
// are sorted. The operator must reproduce it bit for bit.
func assembleWithMaps(cfg Config) *csr {
	npx, npy := cfg.Nx+1, cfg.Ny+1
	rows := cfg.NumRows()
	node := func(i, j, k int) int32 { return int32((k*npy+j)*npx + i) }
	dx := [8]int{0, 1, 1, 0, 0, 1, 1, 0}
	dy := [8]int{0, 0, 1, 1, 0, 0, 1, 1}
	dz := [8]int{0, 0, 0, 0, 1, 1, 1, 1}
	acc := make([]map[int32]float64, rows)
	for r := range acc {
		acc[r] = make(map[int32]float64, 27)
	}
	for ez := 0; ez < cfg.Nz; ez++ {
		for ey := 0; ey < cfg.Ny; ey++ {
			for ex := 0; ex < cfg.Nx; ex++ {
				var n [8]int32
				for c := range n {
					n[c] = node(ex+dx[c], ey+dy[c], ez+dz[c])
				}
				for i := 0; i < 8; i++ {
					for j := 0; j < 8; j++ {
						acc[n[i]][n[j]] += hexStiffness[i][j]
					}
				}
			}
		}
	}
	a := &csr{rowPtr: make([]int32, rows+1)}
	for r := 0; r < rows; r++ {
		acc[r][int32(r)] += massShift
		cols := make([]int32, 0, len(acc[r]))
		for c := range acc[r] {
			cols = append(cols, c)
		}
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		for _, c := range cols {
			a.cols = append(a.cols, c)
			a.vals = append(a.vals, acc[r][c])
		}
		a.rowPtr[r+1] = int32(len(a.cols))
	}
	return a
}

// referenceMeshes are meshes equal to their row-class template (at most 2
// elements per axis) and mixed shapes whose template differs from the
// mesh on some axes only.
var referenceMeshes = []Config{
	{Nx: 1, Ny: 1, Nz: 1},
	{Nx: 2, Ny: 2, Nz: 2},
	{Nx: 2, Ny: 1, Nz: 2},
	{Nx: 3, Ny: 5, Nz: 2},
	{Nx: 1, Ny: 4, Nz: 7},
	{Nx: 6, Ny: 1, Nz: 3},
	{Nx: 2, Ny: 3, Nz: 4},
	{Nx: 4, Ny: 1, Nz: 5},
	{Nx: 5, Ny: 5, Nz: 2},
	{Nx: 24, Ny: 24, Nz: 24},
}

// TestAssembleMatchesMapReference holds every row of the operator, its
// columns and its values, to the map reference bit for bit.
func TestAssembleMatchesMapReference(t *testing.T) {
	for _, c := range referenceMeshes {
		o := newOperator(c)
		want := assembleWithMaps(c)
		name := fmt.Sprintf("%dx%dx%d", c.Nx, c.Ny, c.Nz)
		if len(want.rowPtr) != c.NumRows()+1 || len(want.cols) != c.NNZ() {
			t.Fatalf("%s: reference has %d rows and %d entries, want %d and %d",
				name, len(want.rowPtr)-1, len(want.cols), c.NumRows(), c.NNZ())
		}
		for r := 0; r < c.NumRows(); r++ {
			cols, vals := rowOf(o, r)
			lo, hi := want.rowPtr[r], want.rowPtr[r+1]
			if !slices.Equal(cols, want.cols[lo:hi]) {
				t.Fatalf("%s: row %d columns %v, reference %v", name, r, cols, want.cols[lo:hi])
			}
			if len(vals) != int(hi-lo) {
				t.Fatalf("%s: row %d has %d values, want %d", name, r, len(vals), hi-lo)
			}
			for i, v := range vals {
				if math.Float64bits(v) != math.Float64bits(want.vals[int(lo)+i]) {
					t.Fatalf("%s: row %d value %d = %v, want %v bit for bit", name, r, i, v, want.vals[int(lo)+i])
				}
			}
		}
	}
}

// TestStencilMatchesAssemble holds the row-structure helpers the
// characterization and the operator read to the map reference: RowPtr
// from rowStart's arithmetic, each row's columns from appendRow and its
// class from mulRow.
func TestStencilMatchesAssemble(t *testing.T) {
	for _, c := range []Config{
		{Nx: 1, Ny: 1, Nz: 1},
		{Nx: 3, Ny: 5, Nz: 2},
		{Nx: 1, Ny: 4, Nz: 7},
		{Nx: 6, Ny: 1, Nz: 3},
		{Nx: 24, Ny: 24, Nz: 24},
	} {
		a := assembleWithMaps(c)
		o := newOperator(c)
		x := make([]float64, c.NumRows())
		name := fmt.Sprintf("%dx%dx%d", c.Nx, c.Ny, c.Nz)
		for r := 0; r <= c.NumRows(); r++ {
			if got := c.rowStart(r); got != int(a.rowPtr[r]) {
				t.Fatalf("%s: rowStart(%d) = %d, RowPtr %d", name, r, got, a.rowPtr[r])
			}
		}
		var cols []int32
		for r := 0; r < c.NumRows(); r++ {
			px, py, pz := c.coords(r)
			cols = c.appendRow(cols[:0], px, py, pz)
			if want := a.cols[a.rowPtr[r]:a.rowPtr[r+1]]; !slices.Equal(cols, want) {
				t.Fatalf("%s: row %d columns %v, assembled %v", name, r, cols, want)
			}
			if _, k := o.mulRow(r, x); o.start[k+1]-o.start[k] != len(cols) {
				t.Fatalf("%s: row %d of class %d (%d entries) has %d columns", name, r, k, o.start[k+1]-o.start[k], len(cols))
			}
		}
	}
}

// randomVector fills a vector of n entries in [0, 1) from seed.
func randomVector(n int, seed int64) []float64 {
	x := make([]float64, n)
	s := uint64(seed)
	for i := range x {
		s = s*6364136223846793005 + 1
		x[i] = float64(s>>40) / float64(1<<24)
	}
	return x
}

func TestQuickSpMVMatchesDense(t *testing.T) {
	c := Config{Nx: 3, Ny: 3, Nz: 3, MaxIters: 1}
	o := newOperator(c)
	a := assembleWithMaps(c)
	n := c.NumRows()
	f := func(seed int64) bool {
		x := randomVector(n, seed)
		// Dense reference for a few rows.
		for _, r := range []int{0, n / 2, n - 1} {
			want := 0.0
			for i := a.rowPtr[r]; i < a.rowPtr[r+1]; i++ {
				want += a.vals[i] * x[a.cols[i]]
			}
			if got, _ := o.mulRow(r, x); math.Abs(got-want) > 1e-12 {
				return false
			}
		}
		// Every row is the reference's row walk, bit for bit.
		for r := range n {
			if got, _ := o.mulRow(r, x); math.Float64bits(got) != math.Float64bits(a.mulRow(r, x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// spmvViewMeshes are the meshes the SpMV tallies are checked on.
var spmvViewMeshes = []Config{
	{Nx: 3, Ny: 3, Nz: 3},
	{Nx: 24, Ny: 24, Nz: 24},
	{Nx: 48, Ny: 48, Nz: 48},
	{Nx: 7, Ny: 2, Nz: 13},
}

// TestSpMVClassTalliesMatchPerRow holds the SpMV launch, tallied by row
// class, to a launch whose every row tallies its own work from its
// column count, view by view and bit for bit, at GOMAXPROCS 1 and 3.
func TestSpMVClassTalliesMatchPerRow(t *testing.T) {
	for _, procs := range []int{1, 3} {
		for _, c := range spmvViewMeshes {
			t.Run(fmt.Sprintf("procs=%d/%dx%dx%d", procs, c.Nx, c.Ny, c.Nz), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				n := c.NumRows()
				x, ap := randomVector(n, 7), make([]float64, n)
				got := exec.Run(n, newOperator(c).spmv(ap, x))
				want := exec.Run(n, func(w *exec.WorkItem) {
					px, py, pz := c.coords(w.Global)
					per := spmvTally(float64(len(c.appendRow(nil, px, py, pz))))
					for v := range per {
						w.Tally(v, per[v])
					}
				})
				for v := range want {
					if got[v] != want[v] {
						t.Errorf("view %d: class tallies %+v, per-row %+v", v, got[v], want[v])
					}
				}
			})
		}
	}
}

func TestCGConverges(t *testing.T) {
	p := NewProblem(smallCfg(), timing.Double)
	r := p.RunOpenMP(sim.NewAPU())
	if r.Residual > 1e-6 {
		t.Errorf("CG residual = %g after %d iters, want converged", r.Residual, r.Iterations)
	}
	if r.Iterations < 5 || r.Iterations >= 200 {
		t.Errorf("CG iterations = %d, want reasonable convergence", r.Iterations)
	}
	if r.Kernels != 3 {
		t.Errorf("kernels = %d, want 3 (Table I)", r.Kernels)
	}
}

func TestAllModelsAgree(t *testing.T) {
	p := NewProblem(smallCfg(), timing.Double)
	ref := p.Run(sim.NewAPU(), modelapi.OpenMP)
	for _, model := range []modelapi.Name{modelapi.OpenMP, modelapi.OpenCL, modelapi.CppAMP, modelapi.OpenACC} {
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			r := p.Run(mk(), model)
			if r.Iterations != ref.Iterations {
				t.Errorf("%s on %s: %d iterations, want %d", model, r.Machine, r.Iterations, ref.Iterations)
			}
			if r.Checksum != ref.Checksum || r.Residual != ref.Residual {
				t.Errorf("%s on %s: checksum %g, residual %g; want %g, %g",
					model, r.Machine, r.Checksum, r.Residual, ref.Checksum, ref.Residual)
			}
		}
	}
}

// Figure 8e shape: on the APU everyone shares the same DRAM, so OpenCL
// and C++ AMP only match OpenMP, while OpenACC's scalar SpMV is a
// slowdown (< 1×).
func TestAPUShape(t *testing.T) {
	cfg := Config{Nx: 16, Ny: 16, Nz: 16, MaxIters: 30, Tol: 0}
	p := NewProblem(cfg, timing.Double)
	base := p.RunOpenMP(sim.NewAPU())
	cl := p.RunOpenCL(sim.NewAPU())
	acc := p.RunOpenACC(sim.NewAPU())

	sCL := cl.SpeedupOver(base.Result)
	if sCL < 0.5 || sCL > 3 {
		t.Errorf("APU OpenCL speedup = %.2f, want ≈1 (same memory bandwidth)", sCL)
	}
	sACC := acc.SpeedupOver(base.Result)
	if sACC >= 1 {
		t.Errorf("APU OpenACC speedup = %.2f, want < 1 (paper: slowdown)", sACC)
	}
}

// Figure 9e shape: the dGPU's bandwidth lets OpenCL/AMP scale; OpenACC
// stays worst. Uses a mesh large enough that kernels dominate per-
// iteration PCIe latency.
func TestDGPUShape(t *testing.T) {
	cfg := Config{Nx: 40, Ny: 40, Nz: 40, MaxIters: 30, Tol: 0, FunctionalIters: 2}
	p := NewProblem(cfg, timing.Double)
	base := p.RunOpenMP(sim.NewAPU())
	cl := p.RunOpenCL(sim.NewDGPU())
	amp := p.RunCppAMP(sim.NewDGPU())
	acc := p.RunOpenACC(sim.NewDGPU())

	sCL, sAMP, sACC := cl.SpeedupOver(base.Result), amp.SpeedupOver(base.Result), acc.SpeedupOver(base.Result)
	if !(sCL > sACC && sAMP > sACC) {
		t.Errorf("dGPU: OpenACC %.2f not the slowest (CL %.2f, AMP %.2f)", sACC, sCL, sAMP)
	}
	// Bandwidth-bound scaling: OpenCL on the dGPU must clearly beat its
	// APU self.
	clAPU := p.RunOpenCL(sim.NewAPU())
	if cl.KernelNs >= clAPU.KernelNs {
		t.Error("dGPU OpenCL kernels not faster than APU (bandwidth-bound app)")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nx: 1, Ny: 4, Nz: 4, MaxIters: 10},
		{Nx: 4, Ny: 4, Nz: 4, MaxIters: 0},
		{Nx: 4, Ny: 4, Nz: 4, MaxIters: 10, Tol: -1},
		{Nx: 4, Ny: 4, Nz: 4, MaxIters: 10, FunctionalIters: -2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestMeasuredMissRateBand(t *testing.T) {
	// 40³ elements → ≈1.8M nonzeros (22 MB of matrix data), well past
	// the 768 KB LLC as in the paper's 100³ runs. Our structured
	// 27-point mesh has better x-vector locality than the paper's
	// measured 39% (EXPERIMENTS.md discusses the gap); the test pins
	// the streaming floor: matrix data must always come from DRAM.
	p := NewProblem(Config{Nx: 40, Ny: 40, Nz: 40, MaxIters: 1}, timing.Double)
	miss := p.MeasuredMissRate(sim.NewDGPU())
	if miss < 0.05 || miss > 0.7 {
		t.Errorf("miniFE measured LLC miss rate = %.3f, want moderate (Table I: 0.39)", miss)
	}
}

// residual returns ‖b − A·x‖₂ with A applied by mulRow.
func residual(n int, mulRow func(r int, x []float64) float64, x, b []float64) float64 {
	sum := 0.0
	for r := 0; r < n; r++ {
		d := b[r] - mulRow(r, x)
		sum += d * d
	}
	return math.Sqrt(sum)
}

func TestResidualFunction(t *testing.T) {
	c := Config{Nx: 3, Ny: 3, Nz: 3, MaxIters: 1}
	o := newOperator(c)
	opRow := func(r int, x []float64) float64 { s, _ := o.mulRow(r, x); return s }
	n := c.NumRows()
	b := make([]float64, n)
	for i := range b {
		b[i] = source(i)
	}
	x := make([]float64, n)
	// x = 0 → residual = ‖b‖.
	want := 0.0
	for _, v := range b {
		want += v * v
	}
	want = math.Sqrt(want)
	if got := residual(n, opRow, x, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("Residual(0) = %g, want %g", got, want)
	}
	// Elsewhere the operator's residual is the reference matrix's, bit
	// for bit.
	x = randomVector(n, 3)
	if got, ref := residual(n, opRow, x, b), residual(n, assembleWithMaps(c).mulRow, x, b); math.Float64bits(got) != math.Float64bits(ref) {
		t.Errorf("residual = %v, reference %v", got, ref)
	}
}
