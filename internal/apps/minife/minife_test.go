package minife

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
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
	a, b := Assemble(Config{Nx: 4, Ny: 4, Nz: 4, MaxIters: 1})
	if a.NumRows != 125 || len(b) != 125 {
		t.Fatalf("rows = %d, want 125", a.NumRows)
	}
	// Interior node: 27-point stencil.
	// node (2,2,2) of a 5³ grid = (2*5+2)*5+2 = 62.
	row := 62
	if got := int(a.RowPtr[row+1] - a.RowPtr[row]); got != 27 {
		t.Errorf("interior row nnz = %d, want 27", got)
	}
	// Corner node: 8 entries.
	if got := int(a.RowPtr[1] - a.RowPtr[0]); got != 8 {
		t.Errorf("corner row nnz = %d, want 8", got)
	}
	// Symmetric positive definite-ish: diagonal dominance direction —
	// row sums equal the mass shift.
	for r := 0; r < a.NumRows; r++ {
		sum := 0.0
		diag := 0.0
		for i := a.RowPtr[r]; i < a.RowPtr[r+1]; i++ {
			sum += a.Vals[i]
			if int(a.Cols[i]) == r {
				diag = a.Vals[i]
			}
		}
		if math.Abs(sum-massShift) > 1e-12 {
			t.Fatalf("row %d sum = %g, want %g", r, sum, massShift)
		}
		if diag <= 0 {
			t.Fatalf("row %d diagonal %g not positive", r, diag)
		}
		// Columns sorted (CSR invariant for the adaptive kernel).
		for i := a.RowPtr[r] + 1; i < a.RowPtr[r+1]; i++ {
			if a.Cols[i-1] >= a.Cols[i] {
				t.Fatalf("row %d columns unsorted", r)
			}
		}
	}
}

// assembleWithMaps is the reference assembly: per-row maps accumulate
// each element's stiffness in element order, then every row's columns
// are sorted. Assemble must reproduce it bit for bit.
func assembleWithMaps(cfg Config) *CSR {
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
	a := &CSR{NumRows: rows, RowPtr: make([]int32, rows+1)}
	for r := 0; r < rows; r++ {
		acc[r][int32(r)] += massShift
		cols := make([]int32, 0, len(acc[r]))
		for c := range acc[r] {
			cols = append(cols, c)
		}
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		for _, c := range cols {
			a.Cols = append(a.Cols, c)
			a.Vals = append(a.Vals, acc[r][c])
		}
		a.RowPtr[r+1] = int32(len(a.Cols))
	}
	return a
}

func TestAssembleMatchesMapReference(t *testing.T) {
	for _, c := range []Config{
		{Nx: 1, Ny: 1, Nz: 1},
		{Nx: 2, Ny: 2, Nz: 2},
		{Nx: 3, Ny: 5, Nz: 2},
		{Nx: 1, Ny: 4, Nz: 7},
		{Nx: 6, Ny: 1, Nz: 3},
		{Nx: 24, Ny: 24, Nz: 24},
	} {
		got, b := assemble(c)
		want := assembleWithMaps(c)
		name := fmt.Sprintf("%dx%dx%d", c.Nx, c.Ny, c.Nz)
		if got.NumRows != want.NumRows || len(b) != want.NumRows {
			t.Fatalf("%s: %d rows (b %d), want %d", name, got.NumRows, len(b), want.NumRows)
		}
		if !slices.Equal(got.RowPtr, want.RowPtr) {
			t.Fatalf("%s: RowPtr differs from the map reference", name)
		}
		if !slices.Equal(got.Cols, want.Cols) {
			t.Fatalf("%s: Cols differ from the map reference", name)
		}
		if len(got.Vals) != len(want.Vals) {
			t.Fatalf("%s: %d values, want %d", name, len(got.Vals), len(want.Vals))
		}
		for i := range want.Vals {
			if math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
				t.Fatalf("%s: Vals[%d] = %v, want %v bit for bit", name, i, got.Vals[i], want.Vals[i])
			}
		}
	}
}

// TestStencilMatchesAssemble holds the row-structure helpers the
// characterization reads to the CSR assemble builds: RowPtr from
// rowStart's arithmetic, and each row's columns from appendRow.
func TestStencilMatchesAssemble(t *testing.T) {
	for _, c := range []Config{
		{Nx: 1, Ny: 1, Nz: 1},
		{Nx: 3, Ny: 5, Nz: 2},
		{Nx: 1, Ny: 4, Nz: 7},
		{Nx: 6, Ny: 1, Nz: 3},
		{Nx: 24, Ny: 24, Nz: 24},
	} {
		a, _ := assemble(c)
		name := fmt.Sprintf("%dx%dx%d", c.Nx, c.Ny, c.Nz)
		for r := 0; r <= a.NumRows; r++ {
			if got := c.rowStart(r); got != int(a.RowPtr[r]) {
				t.Fatalf("%s: rowStart(%d) = %d, RowPtr %d", name, r, got, a.RowPtr[r])
			}
		}
		var cols []int32
		for r := 0; r < a.NumRows; r++ {
			x, y, z := c.coords(r)
			cols = c.appendRow(cols[:0], x, y, z)
			if want := a.Cols[a.RowPtr[r]:a.RowPtr[r+1]]; !slices.Equal(cols, want) {
				t.Fatalf("%s: row %d columns %v, assembled %v", name, r, cols, want)
			}
		}
	}
}

func TestQuickSpMVMatchesDense(t *testing.T) {
	a, _ := Assemble(Config{Nx: 3, Ny: 3, Nz: 3, MaxIters: 1})
	n := a.NumRows
	f := func(seed int64) bool {
		x := make([]float64, n)
		s := uint64(seed)
		for i := range x {
			s = s*6364136223846793005 + 1
			x[i] = float64(s>>40) / float64(1<<24)
		}
		// Dense reference for a few rows.
		for _, r := range []int{0, n / 2, n - 1} {
			want := 0.0
			for i := a.RowPtr[r]; i < a.RowPtr[r+1]; i++ {
				want += a.Vals[i] * x[a.Cols[i]]
			}
			if math.Abs(a.MulRow(r, x)-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
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

func TestResidualFunction(t *testing.T) {
	a, b := Assemble(Config{Nx: 3, Ny: 3, Nz: 3, MaxIters: 1})
	x := make([]float64, a.NumRows)
	// x = 0 → residual = ‖b‖.
	want := 0.0
	for _, v := range b {
		want += v * v
	}
	want = math.Sqrt(want)
	if got := Residual(a, x, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("Residual(0) = %g, want %g", got, want)
	}
}
