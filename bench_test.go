package hetbench_test

// One benchmark per paper artifact: each regenerates the corresponding
// table or figure's data at the small scale and reports headline values
// as custom metrics, so `go test -bench=. -benchmem` doubles as a full
// reproduction sweep. The `hetbench` CLI renders the same artifacts as
// tables (use -scale paper for the paper's sizes).

import (
	"context"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hetbench/internal/analysis"
	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/xsbench"
	"hetbench/internal/fault"
	"hetbench/internal/harness"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
	"hetbench/internal/sloc"
	"hetbench/internal/trace"
)

// bmust unwraps a (value, error) Data-sweep pair inside a benchmark; the
// context is never canceled, so an error is a setup failure worth a panic.
func bmust[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// hotCost is the kernel shape every hot-path guard launches: large
// enough to exercise the full timing model, identical across the guards
// so their ns/op compare.
var hotCost = timing.KernelCost{
	Items: 1 << 16, SPFlops: 32, LoadBytes: 24, StoreBytes: 8,
	Instrs: 48, MissRate: 0.2, Coalesce: 0.9,
}

// hotHostCost costs hotCost's host side for the split-launch leaves.
func hotHostCost() timing.KernelCost { return hotCost }

// BenchmarkTable1Characteristics measures the Table I workload
// characterization (LLC miss rates from cache-simulator trace replay, IPC
// and boundedness from the timing model).
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bmust(harness.Table1Data(context.Background(), harness.ScaleSmall))
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MissRate, "missrate/"+r.App)
			}
		}
	}
}

// BenchmarkTable4SLOC runs the SLOC counter over this repository's app
// implementations (Table IV methodology).
func BenchmarkTable4SLOC(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		n, _, err := sloc.CountImpl("internal/apps")
		if err != nil {
			b.Fatal(err)
		}
		total = n
	}
	b.ReportMetric(float64(total), "app-sloc")
}

// BenchmarkFig7FrequencySweep regenerates the five frequency-sensitivity
// sub-figures (72 clock points each, replayed from one functional run).
func BenchmarkFig7FrequencySweep(b *testing.B) {
	for _, app := range harness.AppNames {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				series, err := harness.Fig7Data(harness.ScaleSmall, app)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					last := series[len(series)-1]
					b.ReportMetric(last.Y[len(last.Y)-1], "peak-norm-perf")
				}
			}
		})
	}
}

func benchSpeedups(b *testing.B, mk func() *sim.Machine) {
	for i := 0; i < b.N; i++ {
		cells := bmust(harness.SpeedupData(context.Background(), harness.ScaleSmall, mk))
		if i == 0 {
			for _, c := range cells {
				if c.Precision == timing.Double && c.Model == modelapi.OpenCL {
					b.ReportMetric(c.Speedup, "dp-speedup/"+c.App)
				}
			}
		}
	}
}

// BenchmarkFig8APU regenerates the APU speedup figure (5 apps × 3 models
// × 2 precisions vs the OpenMP baseline).
func BenchmarkFig8APU(b *testing.B) { benchSpeedups(b, sim.NewAPU) }

// BenchmarkFig9DGPU regenerates the discrete-GPU speedup figure.
func BenchmarkFig9DGPU(b *testing.B) { benchSpeedups(b, sim.NewDGPU) }

// BenchmarkFig10Productivity regenerates the Eq. 1 productivity figure on
// both machines.
func BenchmarkFig10Productivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		apu := bmust(harness.ProductivityData(context.Background(), harness.ScaleSmall, sim.NewAPU))
		dgpu := bmust(harness.ProductivityData(context.Background(), harness.ScaleSmall, sim.NewDGPU))
		if i == 0 {
			_, amp, _ := harness.HarmonicMeans(apu)
			cl, _, _ := harness.HarmonicMeans(dgpu)
			b.ReportMetric(amp, "apu-hm-amp")
			b.ReportMetric(cl, "dgpu-hm-opencl")
		}
	}
}

// BenchmarkAblationHC regenerates the Section VII Heterogeneous Compute
// comparison (async transfer overlap on XSBench).
func BenchmarkAblationHC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := bmust(harness.AblationHCData(context.Background(), harness.ScaleSmall))
		if i == 0 {
			for _, c := range cells {
				if c.Model == modelapi.HC {
					b.ReportMetric(c.ElapsedMs, "hc-ms/"+c.App)
				}
			}
		}
	}
}

// BenchmarkAblationTiling regenerates the Section VI-C CoMD tiling claim.
func BenchmarkAblationTiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		flat, tiled, err := harness.AblationTilesData(context.Background(), harness.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(flat/tiled, "tiling-speedup")
		}
	}
}

// BenchmarkAblationGridType regenerates the XSBench grid-structure
// comparison (unionized vs per-nuclide search).
func BenchmarkAblationGridType(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := bmust(harness.AblationGridTypeData(context.Background(), harness.ScaleSmall))
		if i == 0 && len(cells) == 2 {
			b.ReportMetric(cells[0].ElapsedMs/cells[1].ElapsedMs, "union/nuclide-ratio")
		}
	}
}

// BenchmarkAblationDataRegion regenerates the Section III-B data-directive
// ablation (miniFE OpenACC with vs without the data region).
func BenchmarkAblationDataRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withMs, withoutMs, _, _, err := harness.AblationDataRegionData(context.Background(), harness.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(withoutMs/withMs, "dataregion-penalty")
		}
	}
}

// BenchmarkScalingMPIX regenerates the MPI+X strong-scaling extension
// (LULESH slabs over a simulated InfiniBand cluster).
func BenchmarkScalingMPIX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := bmust(harness.ScalingData(context.Background(), harness.ScaleSmall))
		if i == 0 && len(results) > 0 {
			last := results[len(results)-1]
			b.ReportMetric(last.Efficiency(results[0]), "efficiency-at-32")
		}
	}
}

// Leaf hot-path bodies, shared between the Benchmark* guards below and
// the BENCH_hotpath.json writer (TestWriteBenchHotpath): each measures
// one launch-path configuration with allocation reporting on.

func benchLaunchUntraced(b *testing.B) {
	m := sim.NewDGPU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Launch(sim.OnAccelerator, "bench", hotCost)
	}
}

func benchLaunchTraced(b *testing.B) {
	m := sim.NewDGPU()
	m.SetTracer(trace.New())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&8191 == 8191 {
			// Bound span-slice growth so the benchmark measures the
			// emission path, not an ever-growing append target.
			b.StopTimer()
			m.SetTracer(trace.New())
			b.StartTimer()
		}
		m.Launch(sim.OnAccelerator, "bench", hotCost)
	}
}

func benchLaunchCheckedOn(b *testing.B) {
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1, LaunchFailRate: 0.01}), fault.DefaultPolicy())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Launch(sim.OnAccelerator, "bench", hotCost)
	}
}

func benchSplitOff(b *testing.B) {
	m := sim.NewDGPU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.LaunchKernelSplit("bench", hotCost, hotHostCost); !ok {
			m.Launch(sim.OnAccelerator, "bench", hotCost)
		}
	}
}

func benchSplitOn(b *testing.B) {
	m := sim.NewDGPU()
	m.SetCoexec(sched.New(sched.Config{Policy: sched.Dynamic}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LaunchKernelSplit("bench", hotCost, hotHostCost)
	}
}

// benchExecTally runs one functional launch of hotCost's shape whose
// every item tallies its own work: the executor's per-item accounting,
// which data-dependent kernels (SpMV, CoMD force, XSBench) still pay.
func benchExecTally(b *testing.B) {
	per := exec.Counters{SPFlops: hotCost.SPFlops, LoadBytes: hotCost.LoadBytes, StoreBytes: hotCost.StoreBytes, Instrs: hotCost.Instrs}
	kernel := func(w *exec.WorkItem) { w.Tally(0, per) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exec.Run(hotCost.Items, kernel)
	}
}

// hetlintLoad memoizes the module load for benchHetlintModule, which
// times the two-analyzer parallel driver alone. What a hetlint run pays
// before its analyzers start, parsing and type-checking the module, is
// benchHetlintLoad's measure.
var hetlintLoad struct {
	once sync.Once
	pkgs []*analysis.Package
	err  error
}

// loadModule parses and type-checks every package of the module through a
// fresh Loader, as one hetlint ./... run does.
func loadModule() ([]*analysis.Package, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}
	return loader.Load(".", []string{"./..."})
}

func benchHetlintModule(b *testing.B) {
	hetlintLoad.once.Do(func() { hetlintLoad.pkgs, hetlintLoad.err = loadModule() })
	if hetlintLoad.err != nil {
		b.Fatal(hetlintLoad.err)
	}
	analyzers := analysis.Analyzers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := analysis.RunAnalyzersParallel(hetlintLoad.pkgs, analyzers, runtime.GOMAXPROCS(0)); len(findings) != 0 {
			b.Fatalf("module is not hetlint-clean: %v", findings)
		}
	}
}

// benchHetlintLoad times one whole-module load per op: a fresh Loader,
// its `go list -export` run and the type check of every module package
// against the standard library's export data.
func benchHetlintLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := loadModule(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMinifeSolve runs miniFE's functional pass at the small-scale mesh
// (48³ elements, 117,649 rows): the operator's set-up and two functional
// CG iterations. Each op solves a fresh Problem on a machine with a fault
// injector that injects nothing: the injector makes the run bypass the
// memoized functional pass, while the characterization, measured before
// the timer starts, stays memoized.
func benchMinifeSolve(b *testing.B) {
	cfg := minife.Config{Nx: 48, Ny: 48, Nz: 48, MaxIters: 2}
	memo := appcore.NewMemo(nil)
	m := sim.NewAPU()
	m.SetFaultInjector(fault.New(fault.Config{}), fault.DefaultPolicy())
	solve := func() {
		p := &minife.Problem{Cfg: cfg, Precision: timing.Double, Memo: memo}
		p.Run(m, modelapi.OpenMP)
	}
	solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

// benchXsbenchLookup runs XSBench's functional pass at the small-scale
// config (32 nuclides × 2,048 grid points, 100,000 lookups): the
// energy-ordered lookups and the tally launch. Each op runs a fresh
// Problem on a machine with a fault injector that injects nothing, so the
// run bypasses the memoized functional pass, while the table and the
// characterization, built before the timer starts, stay memoized.
func benchXsbenchLookup(b *testing.B) {
	cfg := xsbench.Config{Nuclides: 32, GridPoints: 2048, Lookups: 100_000}
	memo := appcore.NewMemo(nil)
	m := sim.NewAPU()
	m.SetFaultInjector(fault.New(fault.Config{}), fault.DefaultPolicy())
	lookup := func() {
		p := &xsbench.Problem{Cfg: cfg, Precision: timing.Double, Memo: memo}
		p.Run(m, modelapi.OpenMP)
	}
	lookup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup()
	}
}

// benchComdForce runs one evaluation of CoMD's force kernel on the
// small-scale 8³ lattice (2,048 atoms, 5 link cells per axis): the
// cell-box refresh, then one exec.Measure launch of the force body, which
// tallies every precision and force form.
func benchComdForce(b *testing.B) {
	s := comd.NewState(comd.Config{Nx: 8, Ny: 8, Nz: 8, Iters: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Forces()
	}
}

// benchCacheReplay streams 2^19 scattered 8-byte reads (an LCG over
// 256 MB) through appcore.Traits at the dGPU's LLC geometry (768 sets ×
// 16 ways): the characterization replay each app pays once per config,
// precision and device geometry.
func benchCacheReplay(b *testing.B) {
	dev := sim.NewDGPU().Accelerator()
	trace := func(touch func(uint64)) {
		s := uint64(1)
		for i := 0; i < 1<<19; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			touch(s >> 36 &^ 7)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		appcore.Traits(dev, 8, trace)
	}
}

// benchCacheGather replays LULESH's element-gather trace (measureSpecs'
// gather: each element's 8 nodes in 3 coordinate arrays, then its own
// record, in double precision) over the small-scale 32³-element mesh
// through appcore.Traits at the APU's LLC geometry (512 sets × 16 ways):
// the mostly-hitting traffic a characterization replay sees.
func benchCacheGather(b *testing.B) {
	dev := sim.NewAPU().Accelerator()
	mesh := lulesh.NewMesh(32)
	base := func(i int) uint64 { return uint64(i) * 64 << 20 }
	trace := func(touch func(uint64)) {
		for e := 0; e < mesh.NumElem; e++ {
			for _, n := range mesh.Nodelist[8*e : 8*e+8] {
				touch(base(0) + uint64(n)*8)
				touch(base(1) + uint64(n)*8)
				touch(base(2) + uint64(n)*8)
			}
			touch(base(3) + uint64(e)*8)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appcore.Traits(dev, 8, trace)
	}
}

func benchHistObserve(b *testing.B) {
	reg := &trace.Registry{}
	reg.Observe(trace.HistKernelNs, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Observe(trace.HistKernelNs, float64(i+1))
	}
}

// BenchmarkFaultOverhead measures the kernel launch with fault injection
// disabled (the default: one nil check) against the same launch with an
// injector attached. The "off" case is the regression gate: detaching
// the injector must restore the pre-fault-layer launch cost.
func BenchmarkFaultOverhead(b *testing.B) {
	b.Run("off", benchLaunchUntraced)
	b.Run("on", benchLaunchCheckedOn)
}

// BenchmarkSchedulerOverhead measures the split-launch path with no
// co-execution planner attached (the default: one nil check, then the
// caller falls back to the single-device launch — exactly the routing
// every runtime launch performs) against the same path with a dynamic
// scheduler splitting every launch. The "off" case is the regression gate:
// an unattached scheduler must cost nothing beyond the nil check.
func BenchmarkSchedulerOverhead(b *testing.B) {
	b.Run("off", benchSplitOff)
	b.Run("on", benchSplitOn)
}

// BenchmarkTraceOverhead measures the kernel-launch path with tracing
// disabled (the default: one nil check under the already-held machine
// mutex) against the same path with a tracer attached — which now also
// feeds the hist.kernel.ns histogram on every launch. The "off" case is
// the regression gate: it must match the pre-trace-layer launch cost.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", benchLaunchUntraced)
	b.Run("on", benchLaunchTraced)
}

// BenchmarkExecTally measures a functional launch's per-item counter
// accounting over a body that does nothing else.
func BenchmarkExecTally(b *testing.B) {
	b.Run("tally", benchExecTally)
}

// BenchmarkHistObserve measures the steady-state histogram observation
// path (bucket index + counter bump under the registry lock), the cost
// every traced launch now pays per distribution sample.
func BenchmarkHistObserve(b *testing.B) {
	b.Run("observe", benchHistObserve)
}

// BenchmarkMinifeSolve measures miniFE's functional pass, set-up
// included: the largest per-config cost miniFE adds to the figure sweeps.
func BenchmarkMinifeSolve(b *testing.B) {
	b.Run("small", benchMinifeSolve)
}

// BenchmarkXsbenchLookup measures XSBench's functional pass: the lookups,
// in energy order, and the launch that tallies them.
func BenchmarkXsbenchLookup(b *testing.B) {
	b.Run("small", benchXsbenchLookup)
}

// BenchmarkComdForce measures one CoMD force evaluation, the kernel a
// CoMD functional pass spends most of its time in.
func BenchmarkComdForce(b *testing.B) {
	b.Run("small", benchComdForce)
}

// BenchmarkCacheReplay measures one LLC characterization replay: an
// all-miss trace on the dGPU and LULESH's gather on the APU.
func BenchmarkCacheReplay(b *testing.B) {
	b.Run("dgpu", benchCacheReplay)
	b.Run("gather", benchCacheGather)
}

// BenchmarkHetlint measures the two halves of a hetlint ./... run: the
// whole-module load ("load") and the two-analyzer parallel driver over
// the already-loaded module ("module"). Both are tracked in the BENCH
// trajectory alongside the simulator hot paths.
func BenchmarkHetlint(b *testing.B) {
	b.Run("load", benchHetlintLoad)
	b.Run("module", benchHetlintModule)
}

// TestLaunchHotPathAllocs is the allocation gate on the histograms-off
// hot path: with no tracer or injector attached, a kernel launch, plain
// or split across both devices by the co-execution scheduler, must not
// allocate, from a machine's first launch on and again after ResetClock.
// The histogram layer may only spend memory when a tracer is installed.
func TestLaunchHotPathAllocs(t *testing.T) {
	const runs = 50
	for _, split := range []bool{false, true} {
		name, launch := "launch/untraced", func(m *sim.Machine) { m.Launch(sim.OnAccelerator, "bench", hotCost) }
		if split {
			name, launch = "split/on", func(m *sim.Machine) { m.LaunchKernelSplit("bench", hotCost, hotHostCost) }
		}
		// AllocsPerRun calls f once more than runs, unmeasured, so each
		// measured call gets a machine that has never launched.
		fresh := make([]*sim.Machine, runs+1)
		for i := range fresh {
			fresh[i] = sim.NewDGPU()
			if split {
				fresh[i].SetCoexec(sched.New(sched.Config{Policy: sched.Dynamic}))
			}
		}
		next := 0
		if avg := testing.AllocsPerRun(runs, func() { launch(fresh[next]); next++ }); avg != 0 {
			t.Errorf("%s: a machine's first launch allocates %.1f/op, want 0", name, avg)
		}
		m := fresh[0]
		if avg := testing.AllocsPerRun(runs, func() { m.ResetClock(); launch(m) }); avg != 0 {
			t.Errorf("%s: the first launch after ResetClock allocates %.1f/op, want 0", name, avg)
		}
	}
}

// TestWriteBenchHotpath regenerates BENCH_hotpath.json. It is gated
// behind the HETBENCH_BENCH_OUT environment variable (the file path to
// write) because it runs real benchmarks: CI and `make`-style local
// regeneration set it; plain `go test ./...` skips.
func TestWriteBenchHotpath(t *testing.T) {
	out := os.Getenv("HETBENCH_BENCH_OUT")
	if out == "" {
		t.Skip("set HETBENCH_BENCH_OUT=<path> to regenerate BENCH_hotpath.json")
	}
	commit := os.Getenv("HETBENCH_COMMIT")
	if commit == "" {
		commit = os.Getenv("GITHUB_SHA")
	}
	f := &report.BenchFile{
		Suite:  "hotpath",
		Commit: commit,
		Date:   time.Now().UTC().Format(time.RFC3339), //hetlint:allow detnondet BENCH metadata timestamps the snapshot, never experiment output
		Go:     runtime.Version(),
	}
	leaves := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"launch/untraced", benchLaunchUntraced},
		{"launch/traced", benchLaunchTraced},
		{"launch/checked-on", benchLaunchCheckedOn},
		{"split/off", benchSplitOff},
		{"split/on", benchSplitOn},
		{"exec/tally", benchExecTally},
		{"hist/observe", benchHistObserve},
		{"hetlint/load", benchHetlintLoad},
		{"hetlint/module", benchHetlintModule},
		{"minife/solve", benchMinifeSolve},
		{"xsbench/lookup", benchXsbenchLookup},
		{"comd/force", benchComdForce},
		{"cache/replay", benchCacheReplay},
		{"cache/gather", benchCacheGather},
	}
	for _, leaf := range leaves {
		r := testing.Benchmark(leaf.fn)
		if r.N == 0 {
			t.Fatalf("%s did not run", leaf.name)
		}
		f.Entries = append(f.Entries, report.BenchEntry{
			Name:        leaf.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.AllocsPerOp()),
			Count:       int64(r.N),
		})
	}
	if err := report.WriteBenchFile(out, f); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d entries)", out, len(f.Entries))
}

// BenchmarkRunnerSpeedup measures the experiment runner's worker-pool win
// on the figure sweep: the same SpeedupData cells serially and on every
// CPU. The ns/op ratio between the sub-benchmarks is the observed speedup;
// the merged results are byte-identical either way (see TestGolden).
func BenchmarkRunnerSpeedup(b *testing.B) {
	bench := func(jobs int) func(*testing.B) {
		return func(b *testing.B) {
			old := runner.Jobs()
			runner.SetJobs(jobs)
			defer runner.SetJobs(old)
			sc := &runner.Scope{}
			ctx := runner.WithScope(context.Background(), sc)
			for i := 0; i < b.N; i++ {
				cells := bmust(harness.SpeedupData(ctx, harness.ScaleSmall, sim.NewDGPU))
				if len(cells) == 0 {
					b.Fatal("empty sweep")
				}
			}
			st := sc.Stats()
			b.ReportMetric(st.Speedup(), "pool-speedup")
		}
	}
	b.Run("jobs-1", bench(1))
	b.Run("jobs-ncpu", bench(runtime.NumCPU()))
}
