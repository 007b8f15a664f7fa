package harness

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/comd"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// bg is the context threaded through Data calls in tests; none of these
// sweeps is ever canceled here.
var bg = context.Background()

// must unwraps a (value, error) pair from a Data sweep that cannot fail
// under an uncanceled context; a panic here fails the test with a stack.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{"table1", "table2", "table3", "table4", "fig7", "fig8", "fig9", "fig10", "fig11", "hc", "tiles", "dataregion", "gridtype", "scaling", "profile", "roofline", "energy", "trace", "faults", "coexec", "dag", "perfbaseline", "fleet"}
	for _, id := range want {
		e, ok := reg[id]
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		if e.Run == nil || e.Title == "" || e.Description == "" {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestParseScale(t *testing.T) {
	cases := []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"smoke", ScaleSmoke, true},
		{"small", ScaleSmall, true},
		{"default", ScaleDefault, true},
		{"", ScaleDefault, true},
		{"paper", ScalePaper, true},
		{"huge", 0, false},
		{"Small", 0, false}, // scales are case-sensitive
		{"paper ", 0, false},
		{"smol", 0, false},
	}
	for _, c := range cases {
		got, err := ParseScale(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseScale(%q) accepted, want error", c.in)
		}
	}
}

func TestSeedOf(t *testing.T) {
	defer SetSeed(1)
	cases := []struct {
		name     string
		fallback int64
		ctx      context.Context
		want     int64
	}{
		{"no value is the documented default", 1, bg, 1},
		{"WithSeed round-trips", 1, WithSeed(bg, 42), 42},
		{"context seed wins over the fallback", 5, WithSeed(bg, 3), 3},
	}
	for _, c := range cases {
		SetSeed(c.fallback)
		if got := SeedOf(c.ctx); got != c.want {
			t.Errorf("%s: SeedOf = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestNoFallbackCallers keeps the process globals from coming back. The
// CLI and the service carry the seed and the runner scope on the
// context; the fallbacks below remain only for the benchmark driver
// under _perfbench, so no package under internal/ or cmd/ may call them.
func TestNoFallbackCallers(t *testing.T) {
	forbidden := []struct{ importPath, name, instead string }{
		{"hetbench/internal/harness", "SetSeed", "put the seed on the context with harness.WithSeed"},
		{"hetbench/internal/harness/runner", "SetCapture", "set Capture on a runner.Scope"},
		{"hetbench/internal/harness/runner", "TotalStats", "read runner.Scope.Stats"},
		{"hetbench/internal/harness/runner", "ResetStats", "start a fresh runner.Scope"},
	}
	fset := token.NewFileSet()
	for _, dir := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			// Local name of each imported package in this file.
			names := map[string]string{}
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				names[p] = p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					names[p] = imp.Name.Name
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				for _, fb := range forbidden {
					if name, ok := names[fb.importPath]; ok && x.Name == name && sel.Sel.Name == fb.name {
						t.Errorf("%s: calls %s.%s; %s", fset.Position(sel.Pos()), name, fb.name, fb.instead)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Table I: kernel counts must match the paper exactly; miss-rate ordering
// must hold (XSBench worst, LULESH best); boundedness classes must match.
func TestTable1Shapes(t *testing.T) {
	rows := must(Table1Data(bg, ScaleSmall))
	if len(rows) != 4 {
		t.Fatalf("Table I rows = %d, want 4", len(rows))
	}
	byApp := map[string]Table1Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	if byApp["LULESH"].Kernels != 28 || byApp["CoMD"].Kernels != 3 || byApp["XSBench"].Kernels != 1 || byApp["miniFE"].Kernels != 3 {
		t.Errorf("kernel counts wrong: %+v", rows)
	}
	if !(byApp["XSBench"].MissRate > byApp["CoMD"].MissRate && byApp["CoMD"].MissRate > byApp["LULESH"].MissRate) {
		t.Errorf("miss-rate ordering violated: XSBench %.2f, CoMD %.2f, LULESH %.2f",
			byApp["XSBench"].MissRate, byApp["CoMD"].MissRate, byApp["LULESH"].MissRate)
	}
	if byApp["miniFE"].Boundedness != "Memory" {
		t.Errorf("miniFE boundedness = %s, want Memory", byApp["miniFE"].Boundedness)
	}
	if byApp["CoMD"].Boundedness != "Compute" {
		t.Errorf("CoMD boundedness = %s, want Compute", byApp["CoMD"].Boundedness)
	}
	// XSBench has the lowest IPC (Table I: 0.14).
	for _, app := range []string{"LULESH", "CoMD", "miniFE"} {
		if byApp["XSBench"].IPC >= byApp[app].IPC {
			t.Errorf("XSBench IPC %.3f not below %s's %.3f", byApp["XSBench"].IPC, app, byApp[app].IPC)
		}
	}
}

// Figure 7 shapes at the extremes of the grid.
func TestFig7Shapes(t *testing.T) {
	get := func(app string) []float64 {
		series, err := Fig7Data(ScaleSmall, app)
		if err != nil {
			t.Fatal(err)
		}
		// Return [lowMem@lowCore, lowMem@highCore, highMem@lowCore, highMem@highCore].
		lo, hi := series[0], series[len(series)-1]
		return []float64{lo.Y[0], lo.Y[len(lo.Y)-1], hi.Y[0], hi.Y[len(hi.Y)-1]}
	}

	// read-benchmark: memory-bound — at high core clock, raising memory
	// frequency is the big lever; at 200 MHz core it is nearly flat.
	rb := get("read-benchmark")
	if rb[3]/rb[1] < 1.5 {
		t.Errorf("read-benchmark: mem 480→1250 at 1000 MHz core = %.2f×, want ≥1.5", rb[3]/rb[1])
	}
	if rb[2]/rb[0] > 1.4 {
		t.Errorf("read-benchmark: mem sweep at 200 MHz core = %.2f×, want ≈flat", rb[2]/rb[0])
	}

	// CoMD: compute-bound — core scaling strong, memory scaling ≈nil.
	cm := get("CoMD")
	if cm[1]/cm[0] < 2 {
		t.Errorf("CoMD: core 200→1000 = %.2f×, want ≥2", cm[1]/cm[0])
	}
	if cm[3]/cm[1] > 1.2 {
		t.Errorf("CoMD: mem sweep at full core = %.2f×, want ≈flat", cm[3]/cm[1])
	}

	// XSBench: compute/latency-bound — scales with core.
	xs := get("XSBench")
	if xs[1]/xs[0] < 1.5 {
		t.Errorf("XSBench: core scaling = %.2f×, want ≥1.5", xs[1]/xs[0])
	}

	// LULESH: balanced — both axes matter.
	lu := get("LULESH")
	if lu[1]/lu[0] < 1.3 {
		t.Errorf("LULESH: core scaling = %.2f×, want >1.3 (balanced)", lu[1]/lu[0])
	}
	if lu[3]/lu[1] < 1.1 {
		t.Errorf("LULESH: mem scaling at full core = %.2f×, want >1.1 (balanced)", lu[3]/lu[1])
	}

	// miniFE: memory-bound at high core clocks.
	mf := get("miniFE")
	if mf[3]/mf[1] < 1.3 {
		t.Errorf("miniFE: mem scaling at full core = %.2f×, want ≥1.3", mf[3]/mf[1])
	}
}

// figures89 is Figures 8 and 9 at one scale, computed once per test
// binary under one run memo.
type figures89 struct {
	once      sync.Once
	apu, dgpu []SpeedupCell
}

var small89, default89 figures89

func (f *figures89) get(scale Scale) (apu, dgpu []SpeedupCell) {
	f.once.Do(func() {
		ctx := WithMemo(bg)
		f.apu = must(SpeedupData(ctx, scale, sim.NewAPU))
		f.dgpu = must(SpeedupData(ctx, scale, sim.NewDGPU))
	})
	return f.apu, f.dgpu
}

func findSpeedup(t *testing.T, cells []SpeedupCell, app string, model modelapi.Name, prec timing.Precision) SpeedupCell {
	t.Helper()
	for _, c := range cells {
		if c.App == app && c.Model == model && c.Precision == prec {
			return c
		}
	}
	t.Fatalf("cell %s/%s/%v missing", app, model, prec)
	return SpeedupCell{}
}

// Figures 8/9 headline orderings.
func TestSpeedupShapes(t *testing.T) {
	apu, dgpu := small89.get(ScaleSmall)
	find := func(cells []SpeedupCell, app string, model modelapi.Name, prec timing.Precision) SpeedupCell {
		t.Helper()
		return findSpeedup(t, cells, app, model, prec)
	}

	// Every dGPU OpenCL SP speedup ≥ its APU counterpart for the
	// compute-bound app (CoMD) — performance portability upward.
	if d, a := find(dgpu, "CoMD", modelapi.OpenCL, timing.Single), find(apu, "CoMD", modelapi.OpenCL, timing.Single); d.Speedup <= a.Speedup {
		t.Errorf("CoMD OpenCL: dGPU %.1f not above APU %.1f", d.Speedup, a.Speedup)
	}
	// dGPU: OpenCL best on every app (DP).
	for _, app := range AppNames {
		cl := find(dgpu, app, modelapi.OpenCL, timing.Double).Speedup
		for _, model := range []modelapi.Name{modelapi.CppAMP, modelapi.OpenACC} {
			if s := find(dgpu, app, model, timing.Double).Speedup; s > cl {
				t.Errorf("dGPU %s: %s %.2f beats OpenCL %.2f", app, model, s, cl)
			}
		}
	}
	// APU: C++ AMP wins XSBench (the paper's HSA observation).
	if amp, cl := find(apu, "XSBench", modelapi.CppAMP, timing.Double), find(apu, "XSBench", modelapi.OpenCL, timing.Double); amp.Speedup <= cl.Speedup {
		t.Errorf("APU XSBench: AMP %.2f not above OpenCL %.2f", amp.Speedup, cl.Speedup)
	}
	// APU miniFE: OpenACC is a slowdown (<1), OpenCL ≈ OpenMP.
	if s := find(apu, "miniFE", modelapi.OpenACC, timing.Double).Speedup; s >= 1 {
		t.Errorf("APU miniFE OpenACC speedup = %.2f, want <1", s)
	}
	// SP ≥ DP on the flops-bound app (the 1/4 dGPU DP rate bites; on
	// bandwidth- or transfer-bound apps the CPU baseline's own DP
	// penalty offsets it, as in the paper's near-equal XSBench bars).
	for _, app := range []string{"CoMD"} {
		for _, model := range modelapi.All() {
			sp := find(dgpu, app, model, timing.Single).Speedup
			dp := find(dgpu, app, model, timing.Double).Speedup
			if dp > sp*1.1 {
				t.Errorf("dGPU %s/%s: DP speedup %.2f above SP %.2f", app, model, dp, sp)
			}
		}
	}
}

// "C++ AMP outperformed OpenACC in most cases": at the default scale
// AMP's speedup beats OpenACC's for every app on both machines at both
// precisions, except LULESH on the dGPU, where the CPU-fallback kernel's
// view round trips sink AMP (the paper's result too). At small scale
// the XSBench table transfer still dominates the dGPU run and OpenACC
// edges ahead, so the claim is checked where EXPERIMENTS.md makes it.
func TestAMPBeatsOpenACCExceptLULESHOnDGPU(t *testing.T) {
	apu, dgpu := default89.get(ScaleDefault)
	for _, mach := range []struct {
		name  string
		cells []SpeedupCell
	}{{"APU", apu}, {"dGPU", dgpu}} {
		for _, app := range AppNames {
			for _, prec := range []timing.Precision{timing.Single, timing.Double} {
				amp := findSpeedup(t, mach.cells, app, modelapi.CppAMP, prec).Speedup
				acc := findSpeedup(t, mach.cells, app, modelapi.OpenACC, prec).Speedup
				if exception := app == "LULESH" && mach.name == "dGPU"; (amp > acc) == exception {
					t.Errorf("%s %s %v: C++ AMP %.2f vs OpenACC %.2f; AMP should win unless LULESH on the dGPU",
						mach.name, app, prec, amp, acc)
				}
			}
		}
	}
}

// CoMD's SP/DP speedup gap is larger on the APU (1/16 DP rate) than on
// the dGPU (1/4) under every GPU model.
func TestCoMDPrecisionGapLargerOnAPU(t *testing.T) {
	apu, dgpu := small89.get(ScaleSmall)
	gap := func(cells []SpeedupCell, model modelapi.Name) float64 {
		return findSpeedup(t, cells, "CoMD", model, timing.Single).Speedup /
			findSpeedup(t, cells, "CoMD", model, timing.Double).Speedup
	}
	for _, model := range modelapi.All() {
		if a, d := gap(apu, model), gap(dgpu, model); a <= d {
			t.Errorf("CoMD %s: SP/DP gap %.2f on the APU not above %.2f on the dGPU", model, a, d)
		}
	}
}

// C++ AMP's dGPU XSBench run pays the lookup table's PCIe transfer
// twice: the conservative view synchronization drags the table back
// after the kernel, so its transfer time is about 2× OpenCL's.
func TestAMPXSBenchTransferTwiceOpenCLOnDGPU(t *testing.T) {
	_, dgpu := small89.get(ScaleSmall)
	for _, prec := range []timing.Precision{timing.Single, timing.Double} {
		amp := findSpeedup(t, dgpu, "XSBench", modelapi.CppAMP, prec).TransferMs
		cl := findSpeedup(t, dgpu, "XSBench", modelapi.OpenCL, prec).TransferMs
		if r := amp / cl; r < 1.9 || r > 2.1 {
			t.Errorf("dGPU XSBench %v: AMP transfer %.3f ms is %.2f× OpenCL's %.3f ms, want ≈2×", prec, amp, r, cl)
		}
	}
}

// Figure 10 headline: C++ AMP most productive on the APU (harmonic mean);
// OpenCL most productive on the dGPU.
func TestProductivityShapes(t *testing.T) {
	apu := must(ProductivityData(bg, ScaleSmall, sim.NewAPU))
	cl, amp, acc := HarmonicMeans(apu)
	if !(amp > cl) {
		t.Errorf("APU harmonic means: AMP %.2f not above OpenCL %.2f (ACC %.2f)", amp, cl, acc)
	}
	// Figure 10b's direction: OpenCL's productivity standing improves
	// sharply when moving APU → dGPU (its speedup advantage outgrows its
	// line-count cost). With Table IV's 10–160× line ratios, Eq. 1
	// cannot rank OpenCL's harmonic mean first outright (EXPERIMENTS.md
	// discusses this against the paper's own numbers), so we assert the
	// relative shift plus a concrete per-app win.
	dgpu := must(ProductivityData(bg, ScaleSmall, sim.NewDGPU))
	cl2, amp2, _ := HarmonicMeans(dgpu)
	if (cl2 / amp2) <= 1.3*(cl/amp) {
		t.Errorf("OpenCL/AMP productivity ratio did not improve APU→dGPU: %.3f → %.3f", cl/amp, cl2/amp2)
	}
	for _, r := range dgpu {
		if r.App == "LULESH" && r.OpenCL <= r.CppAMP {
			t.Errorf("dGPU LULESH productivity: OpenCL %.2f not above AMP %.2f (similar line counts, big speedup gap)", r.OpenCL, r.CppAMP)
		}
	}
	// Paper: "C++ AMP ... is as much as 3× more productive for XSBench
	// on the APU" — require a clear XSBench productivity win for AMP.
	for _, r := range apu {
		if r.App == "XSBench" && r.CppAMP < 2*r.OpenCL {
			t.Errorf("APU XSBench productivity: AMP %.2f not ≫ OpenCL %.2f", r.CppAMP, r.OpenCL)
		}
	}
}

// fig11For returns model's Figure 11 row; a model the figure does not
// list (the OpenMP baseline) allows none of the optimizations.
func fig11For(model modelapi.Name) fig11Row {
	for _, row := range fig11 {
		if row.model == model {
			return row
		}
	}
	return fig11Row{model: model}
}

// Figure 11 quoted row by row.
func TestFeatureMatrixMatchesFigure11(t *testing.T) {
	if len(fig11) != 3 {
		t.Fatalf("feature matrix has %d rows, want 3", len(fig11))
	}
	ocl := fig11For(modelapi.OpenCL)
	if !(ocl.vectorization && ocl.localDataStore && ocl.fineGrainedSync && ocl.explicitUnroll && ocl.reduceCodeMotion) {
		t.Errorf("OpenCL row = %+v, want all ✓", ocl)
	}
	acc := fig11For(modelapi.OpenACC)
	if !(acc.vectorization && !acc.localDataStore && !acc.fineGrainedSync && !acc.explicitUnroll && !acc.reduceCodeMotion) {
		t.Errorf("OpenACC row = %+v, want ✓ only vectorization", acc)
	}
	amp := fig11For(modelapi.CppAMP)
	if !(amp.vectorization && amp.localDataStore && amp.fineGrainedSync && !amp.explicitUnroll && !amp.reduceCodeMotion) {
		t.Errorf("C++ AMP row = %+v, want ✓✓✓✗✗", amp)
	}
}

// Figure 11's Local Data Store column gates real behaviour: on both
// machines, CoMD's force launch carries LDS traffic exactly under the
// models whose row has the feature — OpenCL and C++ AMP, not OpenACC or
// the OpenMP baseline. The force body is CoMD's only LDS tally and a
// run uses one form of it, so the run's LDS counter is the force's.
func TestForceUsesLDSExactlyWhereFigure11Allows(t *testing.T) {
	p := comd.NewProblem(comd.Config{Nx: 4, Ny: 4, Nz: 4, Iters: 10}, timing.Single)
	for _, tc := range []struct {
		model modelapi.Name
		lds   bool
	}{
		{modelapi.OpenMP, false},
		{modelapi.OpenCL, true},
		{modelapi.CppAMP, true},
		{modelapi.OpenACC, false},
	} {
		if got := fig11For(tc.model).localDataStore; got != tc.lds {
			t.Fatalf("%s Figure 11 Local Data Store = %v, want %v", tc.model, got, tc.lds)
		}
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			m := mk()
			tr := trace.New()
			m.SetTracer(tr)
			p.Run(m, tc.model)
			forces := 0
			for _, s := range tr.Spans() {
				if s.Kind == trace.KindKernel && s.Name == comd.KForce {
					forces++
				}
			}
			if forces == 0 {
				t.Errorf("%s on %s: no %s kernel span", tc.model, m.Name(), comd.KForce)
			}
			if lds := tr.Metrics().Get(trace.CtrLDSBytes); (lds > 0) != tc.lds {
				t.Errorf("%s on %s: LDS bytes %g, want LDS use %v", tc.model, m.Name(), lds, tc.lds)
			}
		}
	}
}

func TestAblationShapes(t *testing.T) {
	// HC beats AMP and OpenACC on both dGPU apps and is at least
	// competitive with OpenCL (async overlap hides uploads; no
	// compiler-managed copies recur).
	cells := must(AblationHCData(bg, ScaleSmall))
	for _, app := range []string{"XSBench", "LULESH"} {
		byModel := map[modelapi.Name]HCCell{}
		for _, c := range cells {
			if c.App == app {
				byModel[c.Model] = c
			}
		}
		hcRes := byModel[modelapi.HC]
		if hcRes.ElapsedMs == 0 {
			t.Fatalf("%s: HC row missing", app)
		}
		if hcRes.ElapsedMs >= byModel[modelapi.CppAMP].ElapsedMs {
			t.Errorf("%s: HC %.2fms not faster than AMP %.2fms", app, hcRes.ElapsedMs, byModel[modelapi.CppAMP].ElapsedMs)
		}
		if hcRes.ElapsedMs > byModel[modelapi.OpenCL].ElapsedMs*1.05 {
			t.Errorf("%s: HC %.2fms worse than OpenCL %.2fms", app, hcRes.ElapsedMs, byModel[modelapi.OpenCL].ElapsedMs)
		}
	}

	// Tiling speedup is substantial.
	flat, tiled, err := AblationTilesData(bg, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if flat/tiled < 1.5 {
		t.Errorf("tiling ablation speedup = %.2f, want ≥1.5", flat/tiled)
	}

	// Data region slashes PCIe traffic.
	withMs, withoutMs, withMB, withoutMB, err := AblationDataRegionData(bg, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if withoutMB <= withMB*2 {
		t.Errorf("conservative copies moved %.1f MB vs %.1f MB with region; want ≫", withoutMB, withMB)
	}
	if withoutMs <= withMs {
		t.Errorf("conservative run %.2fms not slower than data-region run %.2fms", withoutMs, withMs)
	}

	// Grid-structure trade: the nuclide grid moves far less data but
	// does more search work in the kernel.
	grids := must(AblationGridTypeData(bg, ScaleSmall))
	if len(grids) != 2 {
		t.Fatalf("gridtype rows = %d", len(grids))
	}
	union, nuc := grids[0], grids[1]
	if nuc.TableMB*3 > union.TableMB {
		t.Errorf("nuclide table %.0f MB not ≪ unionized %.0f MB", nuc.TableMB, union.TableMB)
	}
	if nuc.TransferMs >= union.TransferMs {
		t.Errorf("nuclide transfer %.2f ms not below unionized %.2f ms", nuc.TransferMs, union.TransferMs)
	}
	if nuc.KernelMs <= union.KernelMs {
		t.Errorf("nuclide kernel %.2f ms not above unionized %.2f ms (extra searches)", nuc.KernelMs, union.KernelMs)
	}
}

func TestCLIHelpers(t *testing.T) {
	if ms, err := Machines("both"); err != nil || len(ms) != 2 {
		t.Errorf("Machines(both) = %d, %v", len(ms), err)
	}
	if ms, err := Machines("apu"); err != nil || len(ms) != 1 || !ms[0]().Unified() {
		t.Errorf("Machines(apu) wrong")
	}
	if ms, err := Machines("dgpu"); err != nil || len(ms) != 1 || ms[0]().Unified() {
		t.Errorf("Machines(dgpu) wrong")
	}
	if _, err := Machines("tpu"); err == nil {
		t.Error("Machines(tpu) accepted")
	}
	if p, err := ParsePrecision("single"); err != nil || p != timing.Single {
		t.Error("ParsePrecision(single) wrong")
	}
	if p, err := ParsePrecision(""); err != nil || p != timing.Double {
		t.Error("ParsePrecision default wrong")
	}
	if _, err := ParsePrecision("half"); err == nil {
		t.Error("ParsePrecision(half) accepted")
	}
}

func TestRunAppRenders(t *testing.T) {
	w := newWorkloads(context.Background(), ScaleSmall, timing.Double)
	var buf bytes.Buffer
	machines, _ := Machines("both")
	err := RunApp(bg, &buf, "read-benchmark", machines, func(m *sim.Machine, md modelapi.Name) appcore.Result {
		return w.Readmem().Run(m, md)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"APU", "R9 280X", "OpenMP", "OpenCL", "Speedup", "Checksum"} {
		if !strings.Contains(out, want) {
			t.Errorf("RunApp output missing %q", want)
		}
	}
}

func TestProfileData(t *testing.T) {
	p := ProfileData(context.Background(), ScaleSmall, modelapi.CppAMP)
	if p.KernelNs <= 0 || len(p.Kernels) < 10 {
		t.Fatalf("profile: %d kernel rows, kernel total %g", len(p.Kernels), p.KernelNs)
	}
	// Within each class, shares sum to ≈1 and rows sort descending.
	for _, rows := range [][]KernelProfileRow{p.Kernels, p.Transfers} {
		sum := 0.0
		for i, r := range rows {
			sum += r.Share
			if i > 0 && r.TotalMs > rows[i-1].TotalMs+1e-9 {
				t.Error("profile rows not sorted by time")
				break
			}
		}
		if len(rows) > 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("profile shares sum to %g", sum)
		}
	}
	// Kernel rows must not contain transfers, and vice versa.
	for _, r := range p.Kernels {
		if r.Kind != "kernel" {
			t.Errorf("kernel row %q has kind %s", r.Name, r.Kind)
		}
	}
	// Under C++ AMP on the dGPU, the CPU-fallback kernel must dominate the
	// kernel profile and its per-iteration round trips must make the
	// transfer class substantial relative to kernel time.
	foundFallback := false
	for _, r := range p.Kernels[:3] {
		if strings.Contains(r.Name, "(cpu-fallback)") {
			foundFallback = true
		}
	}
	if !foundFallback {
		t.Error("AMP kernel profile top-3 does not surface the CPU-fallback kernel")
	}
	if len(p.Transfers) == 0 || p.TransferNs <= 0 {
		t.Fatal("AMP profile records no transfers")
	}
}

func TestRooflineData(t *testing.T) {
	rows := must(RooflineData(bg, ScaleSmall))
	if len(rows) != 5 {
		t.Fatalf("roofline rows = %d", len(rows))
	}
	byApp := map[string]RooflineRow{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.AchievedGflops <= 0 || r.AttainableGflops <= 0 {
			t.Errorf("%s: non-positive throughput", r.App)
		}
		if r.AchievedGflops > r.AttainableGflops*1.05 {
			t.Errorf("%s: achieved %.0f exceeds attainable %.0f", r.App, r.AchievedGflops, r.AttainableGflops)
		}
	}
	if byApp["read-benchmark"].Bound != "memory" {
		t.Error("read-benchmark not memory-regime on the roofline")
	}
	if byApp["CoMD"].Bound != "compute" {
		t.Error("CoMD not compute-regime on the roofline")
	}
	// CoMD has the highest arithmetic intensity in the suite.
	for _, app := range []string{"read-benchmark", "miniFE"} {
		if byApp["CoMD"].IntensityFlopsPerByte <= byApp[app].IntensityFlopsPerByte {
			t.Errorf("CoMD intensity %.2f not above %s's %.2f",
				byApp["CoMD"].IntensityFlopsPerByte, app, byApp[app].IntensityFlopsPerByte)
		}
	}
}

func TestEnergyData(t *testing.T) {
	rows := must(EnergyData(bg, ScaleSmall))
	if len(rows) != 10 {
		t.Fatalf("energy rows = %d, want 10 (5 apps × 2 devices)", len(rows))
	}
	for _, r := range rows {
		if r.EnergyJ <= 0 || r.TimeMs <= 0 {
			t.Errorf("%s/%s: non-positive energy or time", r.App, r.Machine)
		}
		// Average power bounded by idle and board power of the device.
		var lo, hi float64
		if r.Machine == sim.NewAPU().Name() {
			lo, hi = 5, 80
		} else {
			lo, hi = 30, 280
		}
		if r.AvgW < lo || r.AvgW > hi {
			t.Errorf("%s/%s: avg power %.0f W outside [%g, %g]", r.App, r.Machine, r.AvgW, lo, hi)
		}
	}
	// CoMD (compute-bound, big dGPU speedup) must be more
	// energy-efficient on the dGPU despite its board power.
	var comdAPU, comdDGPU float64
	for _, r := range rows {
		if r.App == "CoMD" {
			if r.Machine == sim.NewAPU().Name() {
				comdAPU = r.EnergyJ
			} else {
				comdDGPU = r.EnergyJ
			}
		}
	}
	if comdDGPU >= comdAPU {
		t.Errorf("CoMD energy: dGPU %.3f J not below APU %.3f J", comdDGPU, comdAPU)
	}
}

// An OpenCL run launches every kernel on the accelerator, at either
// precision on either machine. EnergyData counts all of an OpenCL run's
// kernel time as device busy time, and RooflineData all of its flops
// and DRAM bytes as the device's, on the strength of this.
func TestOpenCLLaunchesOnlyOnAccelerator(t *testing.T) {
	for _, prec := range []timing.Precision{timing.Single, timing.Double} {
		for _, r := range newWorkloads(WithMemo(bg), ScaleSmoke, prec).runners() {
			for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
				m := mk()
				tr := trace.New()
				m.SetTracer(tr)
				r.run(m, modelapi.OpenCL)
				kernels := map[string]int{}
				for _, s := range tr.Spans() {
					if s.Kind == trace.KindKernel {
						kernels[s.Track]++
					}
				}
				if kernels[trace.TrackHost] > 0 || kernels[trace.TrackAccelerator] == 0 {
					t.Errorf("%s/%s on %s: kernel spans per track %v, want accelerator only",
						r.name, prec, m.Name(), kernels)
				}
			}
		}
	}
}

// Every experiment renders without error and produces output.
func TestRunAllRenders(t *testing.T) {
	var buf bytes.Buffer
	// One memo for the whole pass, as `hetbench -exp all` runs it.
	if err := RunAll(WithMemo(bg), ScaleSmall, &buf); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I", "R9 280X", "CLAMP", "read-benchmark", "Figure 7", "Har. Mean",
		"Vectorization", "tile_static", "data region",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("RunAll output suspiciously short: %d bytes", len(out))
	}
}
