package harness

import (
	"context"
	"fmt"
	"io"
	"slices"

	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/readmem"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/sloc"
)

// Figure 7 sweep points (the paper's axes).
var (
	fig7CoreMHz = []int{200, 300, 400, 500, 600, 700, 800, 900, 1000}
	fig7MemMHz  = []int{480, 590, 700, 810, 920, 1030, 1140, 1250}
)

// fig7Configs returns the sweep's configurations: few iterations (only
// relative kernel time matters) but large enough bodies that launch
// overhead does not flatten the curves.
func fig7Configs(scale Scale) appConfigs {
	c := scaleConfigs(scale, timing.Single)
	c.lulesh.Iters, c.lulesh.FunctionalIters = 2, 1
	c.comd = comd.Config{Nx: 16, Ny: 16, Nz: 16, Iters: 2, FunctionalIters: 1}
	if scale == ScalePaper {
		c.comd.Nx, c.comd.Ny, c.comd.Nz = 24, 24, 24
	}
	c.minife.MaxIters, c.minife.FunctionalIters = 5, 1
	return c
}

// Fig7Data sweeps one app over the frequency grid and returns one series
// per memory frequency, x = core MHz, y = performance normalized to the
// (200 MHz, 480 MHz) corner. Performance is kernel-rate (the paper holds
// the PCIe path constant across the sweep). The app executes functionally
// once; the run memo then reprices its recorded Tape on a dGPU at each
// clock pair — kernel costs do not depend on clocks, only their times do.
func Fig7Data(scale Scale, app string) ([]*report.Series, error) {
	return fig7Data(nil, scale, app)
}

// fig7Data is Fig7Data inside one runner cell (nil cx = direct call).
// The clock-point runs only reprice the memoized Tape, cheap relative to
// the nominal run that records it, so they stay inside the app's cell
// rather than fanning out further.
func fig7Data(cx *runner.Ctx, scale Scale, app string) ([]*report.Series, error) {
	ctx := cx.Context()
	if memoOf(ctx) == nil {
		// Without a memo every clock point would re-execute the app.
		ctx = WithMemo(ctx, nil)
	}
	if !slices.Contains(AppNames, app) {
		return nil, fmt.Errorf("harness: fig7: unknown app %q", app)
	}
	memo, cfgs := memoOf(ctx), fig7Configs(scale)

	// The nominal-clock run on the cell's machine fills the memo (and is
	// the run a -trace capture sees).
	runApp(memo, cfgs, app, cx.Machine(sim.NewDGPU), modelapi.OpenCL)

	timeAt := func(core, mem int) float64 {
		m := sim.NewDGPU()
		m.AcceleratorModel().SetCoreClock(core)
		m.AcceleratorModel().SetMemClock(mem)
		runApp(memo, cfgs, app, m, modelapi.OpenCL)
		return m.KernelNs()
	}

	base := timeAt(fig7CoreMHz[0], fig7MemMHz[0])
	var out []*report.Series
	for _, mem := range fig7MemMHz {
		s := &report.Series{Name: fmt.Sprintf("%d MHz", mem)}
		for _, core := range fig7CoreMHz {
			s.X = append(s.X, float64(core))
			s.Y = append(s.Y, base/timeAt(core, mem))
		}
		out = append(out, s)
	}
	return out, nil
}

// RunFig7 renders all five sub-figures, one runner cell per app.
func RunFig7(ctx context.Context, scale Scale, w io.Writer) error {
	cells := make([]runner.Cell, len(AppNames))
	for i, app := range AppNames {
		app := app
		cells[i] = runner.Cell{Label: "fig7/" + app, Run: func(cx *runner.Ctx) error {
			series, err := fig7Data(cx, scale, app)
			if err != nil {
				return err
			}
			fig := &report.Figure{
				Title:  fmt.Sprintf("Figure 7 (%s): normalized performance, series = memory frequency", app),
				XLabel: "core MHz",
				YLabel: "perf / perf(200 MHz core, 480 MHz mem)",
				Series: series,
			}
			if _, err := fig.WriteTo(cx.Out); err != nil {
				return err
			}
			fmt.Fprintln(cx.Out)
			return nil
		}}
	}
	_, err := runner.Run(ctx, w, cells)
	return err
}

// ---------------------------------------------------------------------
// Figures 8 and 9.

// SpeedupCell is one bar of Figures 8/9.
type SpeedupCell struct {
	App       string
	Model     modelapi.Name
	Precision timing.Precision
	Speedup   float64
	// Time splits of the model run (ms), for drill-down.
	KernelMs, TransferMs float64
}

// SpeedupData runs 3 models × {SP, DP} × 5 apps against the OpenMP
// baseline on the given machine constructor (Figure 8: sim.NewAPU,
// Figure 9: sim.NewDGPU).
func SpeedupData(ctx context.Context, scale Scale, newMachine func() *sim.Machine) ([]SpeedupCell, error) {
	return speedups(ctx, scale, newMachine, timing.Single, timing.Double)
}

// speedups runs 3 models × 5 apps against the OpenMP baseline at each of
// precs, precision-major and in paper app order, models in modelapi.All
// order within an app.
func speedups(ctx context.Context, scale Scale, newMachine func() *sim.Machine, precs ...timing.Precision) ([]SpeedupCell, error) {
	// One runner cell per (precision, app): the cell runs the OpenMP
	// baseline plus all three models, so the baseline is computed once per
	// app without sharing state across cells. Cell order (precision-major,
	// paper app order) reproduces the serial sweep's row order.
	type combo struct {
		prec timing.Precision
		app  string
	}
	var combos []combo
	for _, prec := range precs {
		for _, app := range AppNames {
			combos = append(combos, combo{prec, app})
		}
	}
	groups, err := runner.Map(ctx, "speedup", len(combos), func(cx *runner.Ctx, i int) []SpeedupCell {
		c := combos[i]
		memo, cfgs := memoOf(cx.Context()), scaleConfigs(scale, c.prec)
		// The paper compares read-benchmark by kernel time: "data-transfer
		// times, if any, were left out".
		kernelOnly := c.app == readmem.AppName
		base := runApp(memo, cfgs, c.app, cx.Machine(sim.NewAPU), modelapi.OpenMP)
		baseT := base.ElapsedNs
		if kernelOnly {
			baseT = base.KernelNs
		}
		var out []SpeedupCell
		for _, model := range modelapi.All() {
			res := runApp(memo, cfgs, c.app, cx.Machine(newMachine), model)
			t := res.ElapsedNs
			if kernelOnly {
				t = res.KernelNs
			}
			sp := 0.0
			if t > 0 {
				sp = baseT / t
			}
			out = append(out, SpeedupCell{
				App: c.app, Model: model, Precision: c.prec, Speedup: sp,
				KernelMs: res.KernelNs / 1e6, TransferMs: res.TransferNs / 1e6,
			})
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	var out []SpeedupCell
	for _, g := range groups {
		out = append(out, g...)
	}
	return out, nil
}

func renderSpeedups(title string, cells []SpeedupCell, w io.Writer) error {
	t := report.NewTable(title, "Application", "Model", "SP speedup", "DP speedup", "DP kernel ms", "DP transfer ms")
	type key struct {
		app   string
		model modelapi.Name
	}
	sp := map[key]SpeedupCell{}
	dp := map[key]SpeedupCell{}
	for _, c := range cells {
		k := key{c.App, c.Model}
		if c.Precision == timing.Single {
			sp[k] = c
		} else {
			dp[k] = c
		}
	}
	for _, app := range AppNames {
		for _, model := range modelapi.All() {
			k := key{app, model}
			t.AddRowf(app, string(model),
				fmt.Sprintf("%.2f", sp[k].Speedup),
				fmt.Sprintf("%.2f", dp[k].Speedup),
				fmt.Sprintf("%.3f", dp[k].KernelMs),
				fmt.Sprintf("%.3f", dp[k].TransferMs))
		}
	}
	_, err := t.WriteTo(w)
	return err
}

// RunFig8 renders the APU speedups.
func RunFig8(ctx context.Context, scale Scale, w io.Writer) error {
	cells, err := SpeedupData(ctx, scale, sim.NewAPU)
	if err != nil {
		return err
	}
	return renderSpeedups("Speedup vs 4-core OpenMP on the A10-7850K APU (read-benchmark: kernel time only)",
		cells, w)
}

// RunFig9 renders the discrete-GPU speedups.
func RunFig9(ctx context.Context, scale Scale, w io.Writer) error {
	cells, err := SpeedupData(ctx, scale, sim.NewDGPU)
	if err != nil {
		return err
	}
	return renderSpeedups("Speedup vs 4-core OpenMP on the R9 280X discrete GPU (read-benchmark: kernel time only)",
		cells, w)
}

// ---------------------------------------------------------------------
// Figure 10.

// ProductivityRow is one app's Eq. 1 productivity per model.
type ProductivityRow struct {
	App                     string
	OpenCL, CppAMP, OpenACC float64
}

// ProductivityData computes Figure 10 for one machine: Eq. 1 over the
// double-precision speedups of Figures 8/9 and the paper's Table IV line
// counts.
func ProductivityData(ctx context.Context, scale Scale, newMachine func() *sim.Machine) ([]ProductivityRow, error) {
	cells, err := speedups(ctx, scale, newMachine, timing.Double)
	if err != nil {
		return nil, err
	}
	lines := map[string]sloc.Table4Row{}
	for _, r := range sloc.Table4() {
		lines[r.App] = r
	}
	var rows []ProductivityRow
	for _, c := range cells {
		if len(rows) == 0 || rows[len(rows)-1].App != c.App {
			rows = append(rows, ProductivityRow{App: c.App})
		}
		row, l := &rows[len(rows)-1], lines[c.App]
		switch c.Model {
		case modelapi.OpenCL:
			row.OpenCL = sloc.Productivity(c.Speedup, l.OpenCL, l.OpenMP)
		case modelapi.CppAMP:
			row.CppAMP = sloc.Productivity(c.Speedup, l.CppAMP, l.OpenMP)
		case modelapi.OpenACC:
			row.OpenACC = sloc.Productivity(c.Speedup, l.OpenACC, l.OpenMP)
		}
	}
	return rows, nil
}

// HarmonicMeans returns the per-model harmonic means of a productivity
// table (the paper's "Har. Mean" bars).
func HarmonicMeans(rows []ProductivityRow) (cl, amp, acc float64) {
	var a, b, c []float64
	for _, r := range rows {
		a = append(a, r.OpenCL)
		b = append(b, r.CppAMP)
		c = append(c, r.OpenACC)
	}
	return sloc.HarmonicMean(a), sloc.HarmonicMean(b), sloc.HarmonicMean(c)
}

// RunFig10 renders productivity on both machines.
func RunFig10(ctx context.Context, scale Scale, w io.Writer) error {
	for _, sub := range []struct {
		title string
		mk    func() *sim.Machine
	}{
		{"Figure 10a: productivity on the A10-7850K APU (Eq. 1, double precision)", sim.NewAPU},
		{"Figure 10b: productivity on the R9 280X discrete GPU (Eq. 1, double precision)", sim.NewDGPU},
	} {
		rows, err := ProductivityData(ctx, scale, sub.mk)
		if err != nil {
			return err
		}
		t := report.NewTable(sub.title, "Application", "OpenCL", "C++ AMP", "OpenACC")
		for _, r := range rows {
			t.AddRowf(r.App, fmt.Sprintf("%.2f", r.OpenCL), fmt.Sprintf("%.2f", r.CppAMP), fmt.Sprintf("%.2f", r.OpenACC))
		}
		cl, amp, acc := HarmonicMeans(rows)
		t.AddRowf("Har. Mean", fmt.Sprintf("%.2f", cl), fmt.Sprintf("%.2f", amp), fmt.Sprintf("%.2f", acc))
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
