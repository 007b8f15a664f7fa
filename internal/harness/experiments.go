package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/xsbench"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sim"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/timing"
	"hetbench/internal/sloc"
	"hetbench/internal/trace"
)

// ---------------------------------------------------------------------
// Table I.

// Table1Row is one measured characterization row.
type Table1Row struct {
	App         string
	MissRate    float64
	IPC         float64
	Kernels     int
	Boundedness string
}

// Table1Data measures the characterization on the simulated R9 280X
// running the hand-tuned OpenCL implementations (the paper's setup).
// LLC miss rates use fixed characterization instances whose footprints
// exceed the 768 KB L2 regardless of the timing-run scale, because a
// cache-resident toy instance would report vacuous 0% rates. IPC and
// boundedness come from the run's kernel counters (kernelProfile).
func Table1Data(ctx context.Context, scale Scale) ([]Table1Row, error) {
	char := characterizationMissRates(memoOf(ctx))
	// Table I lists only the four proxy applications (not read-benchmark);
	// one runner cell per app, each with its own machine.
	apps := []string{"LULESH", "CoMD", "XSBench", "miniFE"}
	cfgs := scaleConfigs(scale, timing.Double)
	return runner.Map(ctx, "table1", len(apps), func(cx *runner.Ctx, i int) Table1Row {
		m := cx.TracedMachine(sim.NewDGPU)
		res := runApp(memoOf(cx.Context()), cfgs, apps[i], m, modelapi.OpenCL)
		ipc, bound := kernelProfile(m.Tracer().Metrics())
		return Table1Row{
			App:         apps[i],
			MissRate:    char[apps[i]],
			IPC:         ipc,
			Kernels:     res.Kernels,
			Boundedness: bound,
		}
	})
}

// kernelProfile reads Table I's IPC and boundedness from a run's kernel
// counters. IPC is the time-weighted mean over every launch. The run is
// "Memory" bound when more than 60% of its kernel time (less launch
// overhead) is bandwidth-limited, "Compute" bound when more than 60% is
// ALU-, issue- or LDS-limited, and "Balanced" otherwise; a run with no
// kernel time is "Unknown".
func kernelProfile(reg *trace.Registry) (ipc float64, bound string) {
	ns := reg.Get(trace.CtrKernelNs)
	if ns == 0 {
		return 0, "Unknown"
	}
	ipc = reg.Get(trace.CtrKernelIPCNs) / ns
	mem := reg.Get(trace.CtrKernelBoundMemNs)
	compute := reg.Get(trace.CtrKernelBoundALUNs) + reg.Get(trace.CtrKernelBoundIssueNs) + reg.Get(trace.CtrKernelBoundLDSNs)
	switch total := mem + compute; {
	case total == 0:
		return ipc, "Unknown"
	case mem/total > 0.6:
		return ipc, "Memory"
	case compute/total > 0.6:
		return ipc, "Compute"
	}
	return ipc, "Balanced"
}

// characterizationMissRates measures per-access LLC miss rates on
// paper-representative footprints (trace replay only — no timing runs).
func characterizationMissRates(memo *appcore.Memo) map[string]float64 {
	m := sim.NewDGPU()
	lu := &lulesh.Problem{Cfg: lulesh.Config{S: 48, Iters: 1}, Precision: timing.Double, Memo: memo}
	co := &comd.Problem{Cfg: comd.Config{Nx: 24, Ny: 24, Nz: 24, Iters: 1}, Precision: timing.Double, Memo: memo}
	xs := &xsbench.Problem{Cfg: xsbench.Config{Nuclides: 32, GridPoints: 4096, Lookups: 1}, Precision: timing.Double, Memo: memo}
	mf := &minife.Problem{Cfg: minife.Config{Nx: 40, Ny: 40, Nz: 40, MaxIters: 1}, Precision: timing.Double, Memo: memo}
	return map[string]float64{
		"LULESH":  lu.MeasuredTraits(m),
		"CoMD":    co.MeasuredMissRate(m),
		"XSBench": xs.MeasuredMissRate(m),
		"miniFE":  mf.MeasuredMissRate(m),
	}
}

// RunTable1 renders Table I.
func RunTable1(ctx context.Context, scale Scale, w io.Writer) error {
	t := report.NewTable("", "Application", "LLC Miss Rate", "IPC", "Kernels", "Boundedness", "Paper (miss/IPC/bound)")
	paper := map[string]string{
		"LULESH":  "11% / 0.65 / Balanced",
		"CoMD":    "26% / 0.69 / Compute",
		"XSBench": "53% / 0.14 / Compute",
		"miniFE":  "39% / 0.88 / Memory",
	}
	rows, err := Table1Data(ctx, scale)
	if err != nil {
		return err
	}
	for _, r := range rows {
		t.AddRowf(r.App, fmt.Sprintf("%.0f%%", r.MissRate*100), r.IPC, r.Kernels, r.Boundedness, paper[r.App])
	}
	_, err = t.WriteTo(w)
	return err
}

// RunTable2 renders the hardware catalog (Table II).
func RunTable2(_ context.Context, _ Scale, w io.Writer) error {
	dgpu, apu, cpu := device.R9280X(), device.A10_7850K(), device.HostCPU()
	t := report.NewTable("", "Name", "AMD Radeon R9 280X", "AMD A10-7850K (GPU)", "Host CPU")
	row := func(label string, f func(*device.Device) string) {
		t.AddRow(label, f(dgpu), f(apu), f(cpu))
	}
	row("Stream Processors", func(d *device.Device) string { return fmt.Sprintf("%d", d.TotalLanes()) })
	row("Compute Units", func(d *device.Device) string { return fmt.Sprintf("%d", d.ComputeUnits) })
	row("Core Clock (MHz)", func(d *device.Device) string { return fmt.Sprintf("%d", d.CoreClockMHz) })
	row("Memory Bus", func(d *device.Device) string { return d.MemKind.String() })
	row("Peak Bandwidth (GB/s)", func(d *device.Device) string { return fmt.Sprintf("%.0f", d.PeakBandwidthGBs) })
	row("Peak SP (GFLOPS)", func(d *device.Device) string { return fmt.Sprintf("%.0f", d.PeakSPGflops()) })
	row("Peak DP (GFLOPS)", func(d *device.Device) string { return fmt.Sprintf("%.0f", d.PeakDPGflops()) })
	row("Local Memory (KB/CU)", func(d *device.Device) string { return fmt.Sprintf("%d", d.LDSPerCUBytes>>10) })
	row("Unified Memory", func(d *device.Device) string {
		if d.UnifiedMemory {
			return "yes"
		}
		return "no"
	})
	_, err := t.WriteTo(w)
	return err
}

// RunTable3 renders the compiler table (Table III).
func RunTable3(_ context.Context, _ Scale, w io.Writer) error {
	t := report.NewTable("", "Programming Model", "Compiler", "Transfer Strategy")
	for _, n := range []modelapi.Name{modelapi.OpenCL, modelapi.CppAMP, modelapi.OpenACC} {
		p := modelapi.ProfileFor(n)
		t.AddRow(string(n), p.Compiler, p.Strategy.String())
	}
	_, err := t.WriteTo(w)
	return err
}

// RunTable4 renders the paper's SLOC table plus this repository's own
// counted per-app implementation sizes (methodology demonstration).
func RunTable4(_ context.Context, _ Scale, w io.Writer) error {
	t := report.NewTable("Paper-measured lines changed from serial (SLOCCount)",
		"Application", "OpenMP", "OpenCL", "C++ AMP", "OpenACC")
	for _, r := range sloc.Table4() {
		t.AddRowf(r.App, r.OpenMP, r.OpenCL, r.CppAMP, r.OpenACC)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}

	t2 := report.NewTable("\nThis repository's implementations (logical Go SLOC per app package)",
		"Package", "SLOC", "Files")
	for _, dir := range []string{"readmem", "lulesh", "comd", "xsbench", "minife"} {
		total, files, err := sloc.CountImpl("internal/apps/" + dir)
		if err != nil {
			// Running outside the repo root: report and continue.
			t2.AddRow(dir, "n/a", "n/a")
			continue
		}
		t2.AddRowf(dir, total, len(files))
	}
	_, err := t2.WriteTo(w)
	return err
}

// fig11 quotes the paper's Figure 11, "Optimizations allowed by each
// model", row for row in the paper's order. The matrix is the paper's
// qualitative comparison: only the Local Data Store column has a
// behaviour behind it here, checked by
// TestForceUsesLDSExactlyWhereFigure11Allows.
var fig11 = []fig11Row{
	{modelapi.OpenCL, true, true, true, true, true},
	{modelapi.OpenACC, true, false, false, false, false},
	{modelapi.CppAMP, true, true, true, false, false},
}

// fig11Row is one model's row of Figure 11: whether the model allows each
// optimization, in the figure's column order.
type fig11Row struct {
	model modelapi.Name

	vectorization, localDataStore, fineGrainedSync, explicitUnroll, reduceCodeMotion bool
}

// RunFig11 renders the optimization-feature matrix.
func RunFig11(_ context.Context, _ Scale, w io.Writer) error {
	t := report.NewTable("", "Model", "Vectorization", "Local Data Store", "Fine-grained Sync", "Explicit Unroll", "Reducing Code Motion")
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, row := range fig11 {
		t.AddRow(string(row.model), mark(row.vectorization), mark(row.localDataStore),
			mark(row.fineGrainedSync), mark(row.explicitUnroll), mark(row.reduceCodeMotion))
	}
	_, err := t.WriteTo(w)
	return err
}
