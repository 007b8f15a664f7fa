// Package harness wires the proxy applications, programming-model
// runtimes and simulated machines into the paper's experiments: one
// registered Experiment per table and figure (plus the ablations), each
// regenerating its artifact as an ASCII table or series grid. The run
// seed travels on the context (WithSeed, SeedOf), and so does the run
// memo (WithMemo).
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/readmem"
	"hetbench/internal/apps/xsbench"
	"hetbench/internal/sim/timing"
)

// Scale selects problem sizes: Small for tests, Default for interactive
// runs, Paper for the paper's command-line sizes (slow: the full LULESH
// -s 100 -i 100 workload runs functionally for a sample of iterations and
// replays the measured kernel costs for the rest).
type Scale int

// Scales.
const (
	ScaleSmall Scale = iota
	ScaleDefault
	ScalePaper
	// ScaleSmoke is the tiniest runnable size: CI determinism checks and
	// quick plumbing tests, not a scale whose numbers mean anything.
	ScaleSmoke
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "smoke":
		return ScaleSmoke, nil
	case "small":
		return ScaleSmall, nil
	case "default", "":
		return ScaleDefault, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("harness: unknown scale %q (smoke|small|default|paper)", s)
	}
}

// seedKey is the context key WithSeed stores the run seed under.
type seedKey struct{}

// WithSeed returns ctx carrying the run seed. Every randomized subsystem
// (today the fault injector; nothing else in the harness draws
// randomness) derives its stream deterministically from it, so two runs
// with the same seed, scale and experiment are bit-identical.
func WithSeed(ctx context.Context, s int64) context.Context {
	return context.WithValue(ctx, seedKey{}, s)
}

// SeedOf returns the seed ctx carries, or the SetSeed fallback (1, the
// documented `-seed 1`) when it carries none.
func SeedOf(ctx context.Context) int64 {
	if s, ok := ctx.Value(seedKey{}).(int64); ok {
		return s
	}
	return fallbackSeed.Load()
}

var fallbackSeed atomic.Int64

func init() { fallbackSeed.Store(1) }

// SetSeed sets the fallback SeedOf returns for a context without a seed.
// It exists only for the _perfbench benchmark, which sets its seed this
// way; everything else uses WithSeed.
func SetSeed(s int64) { fallbackSeed.Store(s) }

// memoKey is the context key WithMemo stores the run memo under.
type memoKey struct{}

// WithMemo returns ctx carrying a fresh run memo. Every experiment run
// under ctx measures each app's LLC characterization once per (app
// config, precision, device geometry), executes each app's functional
// pass once per app config (every precision and kernel variant prices a
// view of it) and the profile and trace experiments' traced LULESH run
// once per (scale, model), and shares them across its cells and
// experiments. The CLI installs one per invocation
// and the service one per request, so nothing outlives its run.
func WithMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, memoKey{}, &appcore.Memo{})
}

// memoOf returns the memo ctx carries, or nil: without one every
// characterization and functional pass is computed afresh.
func memoOf(ctx context.Context) *appcore.Memo {
	m, _ := ctx.Value(memoKey{}).(*appcore.Memo)
	return m
}

// AppNames in paper order.
var AppNames = []string{
	readmem.AppName, lulesh.AppName, comd.AppName, xsbench.AppName, minife.AppName,
}

// Per-app scale configurations. Scales:
//   - Smoke is deliberately toy-sized: it exists so CI can run an
//     experiment quickly and byte-diff the output in seconds, not to
//     reproduce any paper phenomenon.
//   - Small still has to be big enough that device kernels dominate the
//     fixed launch (8 µs) and PCIe setup costs — the paper's phenomena
//     vanish on toy sizes. Iteration counts amortize the one-time staging
//     the way the paper's -i 100 runs do.
//   - Paper matches the Table I command lines: LULESH -s 100 -i 100;
//     CoMD -x 60 -y 60 -z 60; XSBench -s small; miniFE -nx/-ny/-nz 100.
func readmemConfig(scale Scale, prec timing.Precision) readmem.Config {
	blocks := map[Scale]int{ScaleSmoke: 1 << 12, ScaleSmall: 1 << 15, ScaleDefault: 1 << 17, ScalePaper: 1 << 21}
	return readmem.Config{Blocks: blocks[scale], Precision: prec}
}

func luleshConfig(scale Scale) lulesh.Config {
	switch scale {
	case ScaleSmoke:
		return lulesh.Config{S: 16, Iters: 8, FunctionalIters: 1}
	case ScaleSmall:
		return lulesh.Config{S: 32, Iters: 30, FunctionalIters: 1}
	case ScalePaper:
		return lulesh.Config{S: 100, Iters: 100, FunctionalIters: 2}
	default:
		return lulesh.Config{S: 48, Iters: 50, FunctionalIters: 2}
	}
}

func comdConfig(scale Scale) comd.Config {
	switch scale {
	case ScaleSmoke:
		return comd.Config{Nx: 6, Ny: 6, Nz: 6, Iters: 6, FunctionalIters: 1}
	case ScaleSmall:
		return comd.Config{Nx: 8, Ny: 8, Nz: 8, Iters: 12, FunctionalIters: 1}
	case ScalePaper:
		return comd.Config{Nx: 60, Ny: 60, Nz: 60, Iters: 100, FunctionalIters: 1}
	default:
		return comd.Config{Nx: 12, Ny: 12, Nz: 12, Iters: 20, FunctionalIters: 2}
	}
}

func xsbenchConfig(scale Scale) xsbench.Config {
	switch scale {
	case ScaleSmoke:
		return xsbench.Config{Nuclides: 16, GridPoints: 512, Lookups: 20_000}
	case ScaleSmall:
		return xsbench.Config{Nuclides: 32, GridPoints: 2048, Lookups: 100_000}
	case ScalePaper:
		return xsbench.PaperSmall()
	default:
		return xsbench.Config{Nuclides: 48, GridPoints: 4096, Lookups: 500_000}
	}
}

func minifeConfig(scale Scale) minife.Config {
	switch scale {
	case ScaleSmoke:
		return minife.Config{Nx: 24, Ny: 24, Nz: 24, MaxIters: 10, Tol: 0, FunctionalIters: 1}
	case ScaleSmall:
		return minife.Config{Nx: 48, Ny: 48, Nz: 48, MaxIters: 30, Tol: 0, FunctionalIters: 2}
	case ScalePaper:
		return minife.Config{Nx: 100, Ny: 100, Nz: 100, MaxIters: 200, Tol: 0, FunctionalIters: 2}
	default:
		return minife.Config{Nx: 64, Ny: 64, Nz: 64, MaxIters: 60, Tol: 0, FunctionalIters: 2}
	}
}

// workloads holds the five apps at a scale and precision. Each Problem
// is a literal that asks for its data only when its characterization or
// functional pass misses the run memo, so a cell whose runs all hit never
// does. LULESH's mesh and XSBench's table come from the memo, once per
// config for the whole run; miniFE's matrix and read-benchmark's input
// are built by the cell that needs them. A workloads value belongs to a
// single goroutine (one experiment cell); it is not safe for concurrent
// use, and the parallel runner gives every cell its own instead of
// sharing one. What the cells do share is the run memo, which every
// Problem here gets.
type workloads struct {
	scale Scale
	prec  timing.Precision
	memo  *appcore.Memo

	// Optional per-app config overrides applied at first build (the
	// Figure 7 sweep trims iteration counts); nil means the scale default.
	luleshCfg *lulesh.Config
	comdCfg   *comd.Config
	minifeCfg *minife.Config

	readmem *readmem.Problem
	lulesh  *lulesh.Problem
	comd    *comd.Problem
	xsbench *xsbench.Problem
	minife  *minife.Problem
}

func newWorkloads(ctx context.Context, scale Scale, prec timing.Precision) *workloads {
	switch scale {
	case ScaleSmoke, ScaleSmall, ScaleDefault, ScalePaper:
	default:
		panic(fmt.Sprintf("harness: unknown scale %d", scale))
	}
	return &workloads{scale: scale, prec: prec, memo: memoOf(ctx)}
}

// Readmem returns the read-benchmark instance.
func (w *workloads) Readmem() *readmem.Problem {
	if w.readmem == nil {
		w.readmem = &readmem.Problem{Cfg: readmemConfig(w.scale, w.prec), Memo: w.memo}
	}
	return w.readmem
}

// Lulesh returns the LULESH instance.
func (w *workloads) Lulesh() *lulesh.Problem {
	if w.lulesh == nil {
		cfg := luleshConfig(w.scale)
		if w.luleshCfg != nil {
			cfg = *w.luleshCfg
		}
		w.lulesh = &lulesh.Problem{Cfg: cfg, Precision: w.prec, Memo: w.memo}
	}
	return w.lulesh
}

// Comd returns the CoMD instance.
func (w *workloads) Comd() *comd.Problem {
	if w.comd == nil {
		cfg := comdConfig(w.scale)
		if w.comdCfg != nil {
			cfg = *w.comdCfg
		}
		w.comd = &comd.Problem{Cfg: cfg, Precision: w.prec, Memo: w.memo}
	}
	return w.comd
}

// Xsbench returns the XSBench instance.
func (w *workloads) Xsbench() *xsbench.Problem {
	if w.xsbench == nil {
		w.xsbench = &xsbench.Problem{Cfg: xsbenchConfig(w.scale), Precision: w.prec, Memo: w.memo}
	}
	return w.xsbench
}

// Minife returns the miniFE instance.
func (w *workloads) Minife() *minife.Problem {
	if w.minife == nil {
		cfg := minifeConfig(w.scale)
		if w.minifeCfg != nil {
			cfg = *w.minifeCfg
		}
		w.minife = &minife.Problem{Cfg: cfg, Precision: w.prec, Memo: w.memo}
	}
	return w.minife
}

// Experiment is one regenerable paper artifact. Run honors ctx: a
// canceled context stops the experiment at the next cell boundary (the
// runner skips unstarted cells), which is how hetbenchd aborts work for
// disconnected clients.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(ctx context.Context, scale Scale, w io.Writer) error
}

// experiments returns every experiment in presentation order, the order
// RunAll runs them in.
func experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: Characteristics of Proxy Applications",
			"LLC miss rate, IPC, kernel count and boundedness, measured on the simulated R9 280X", RunTable1},
		{"table2", "Table II: Hardware Specification of Accelerators",
			"device catalog", RunTable2},
		{"table3", "Table III: Compilers Used for Programming Models",
			"compiler profiles", RunTable3},
		{"table4", "Table IV: Source Lines of Code Changed",
			"paper-measured SLOC plus this repo's own counted implementations", RunTable4},
		{"fig7", "Figure 7: Performance vs core and memory frequency",
			"5 apps × core 200–1000 MHz × memory 480–1250 MHz, OpenCL on the dGPU", RunFig7},
		{"fig8", "Figure 8: Speedups on the A10-7850K APU",
			"5 apps × 3 models × {SP, DP} vs 4-core OpenMP", RunFig8},
		{"fig9", "Figure 9: Speedups on the R9 280X discrete GPU",
			"5 apps × 3 models × {SP, DP} vs 4-core OpenMP", RunFig9},
		{"fig10", "Figure 10: Productivity (Eq. 1)",
			"double precision, APU and dGPU, with harmonic means", RunFig10},
		{"fig11", "Figure 11: Optimizations allowed by each model",
			"feature matrix", RunFig11},
		{"hc", "Ablation: Heterogeneous Compute (Section VII)",
			"XSBench under HC's async transfers vs the other models on the dGPU", RunAblationHC},
		{"tiles", "Ablation: CoMD tiling (Section VI-C)",
			"LDS-tiled vs flat force kernel", RunAblationTiles},
		{"dataregion", "Ablation: OpenACC data directive (Section III-B)",
			"miniFE kernels regions with and without an enclosing data region on the dGPU", RunAblationDataRegion},
		{"gridtype", "Ablation: XSBench grid structures",
			"unionized grid (one search, 240 MB-class table) vs nuclide grids (per-nuclide searches, ~6× smaller)", RunAblationGridType},
		{"scaling", "Extension: MPI+X strong scaling",
			"LULESH slab decomposition across a simulated InfiniBand cluster of R9 280X nodes", RunScaling},
		{"profile", "Extension: per-kernel profiles",
			"LULESH's 28 kernels ranked by time under each model (exposes the C++ AMP fallback)", RunProfile},
		{"roofline", "Extension: roofline placement",
			"arithmetic intensity vs attainable throughput for all five apps on the dGPU", RunRoofline},
		{"energy", "Extension: energy to solution",
			"device energy (idle + DVFS dynamic + DRAM + PCIe) per app, APU vs dGPU", RunEnergy},
		{"trace", "Extension: structured trace timelines",
			"LULESH under each GPU model on the dGPU: per-iteration Gantt charts, span aggregates and run counters (exposes the C++ AMP CPU-fallback kernel)", RunTrace},
		{"faults", "Extension: fault injection and resilience",
			"LULESH under each GPU model on the dGPU across a seeded fault-rate sweep: completed-run rate, recovery overhead, retries, watchdog kills and host fallbacks per model", RunFaults},
		{"coexec", "Extension: CPU+accelerator co-execution",
			"readmem, LULESH and miniFE split across host CPU and accelerator on both machines under static, dynamic and HGuided partitioning, vs the accelerator alone", RunCoexec},
		{"dag", "Extension: declarative DAG workloads",
			"the four shipped workload specs (sobel, canny, 3mm, mlp) under spec × model × machine × schedule: serialized baseline vs the DAG-aware planner overlapping independent kernels on both devices, with staging priced per edge and device-loss rebooking", RunDag},
		{"perfbaseline", "Extension: perf baseline and latency distributions",
			"per-app kernel/transfer latency quantiles plus fault-recovery and chunk-service distributions; a representative runner workout (run with -v for the pool's wall-clock stats)", RunPerfBaseline},
		{"fleet", "Extension: cluster-scale fleet simulation",
			"fleets of mixed APU/dGPU nodes under seeded arrival traces: arrival rate × placement policy × fleet mix with p50/p95/p99 tail latency, node utilization and device-loss migration", RunFleet},
	}
}

// Registry returns all experiments keyed by ID.
func Registry() map[string]Experiment {
	exps := experiments()
	m := make(map[string]Experiment, len(exps))
	for _, e := range exps {
		m[e.ID] = e
	}
	return m
}

// IDs returns the experiment ids sorted.
func IDs() []string {
	ids := make([]string, 0)
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment in presentation order, stopping at
// the first failure or once ctx is canceled.
func RunAll(ctx context.Context, scale Scale, w io.Writer) error {
	for _, e := range experiments() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Title)
		if err := e.Run(ctx, scale, w); err != nil {
			return fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
