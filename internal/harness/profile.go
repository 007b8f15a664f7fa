package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// KernelProfileRow is one name's aggregate from the trace. Share is the
// fraction of that row's own resource class — kernel time for kernels,
// transfer time for transfers — so compute and the PCIe link are not
// conflated into one meaningless total.
type KernelProfileRow struct {
	Name    string
	Kind    trace.Kind
	Calls   int
	TotalMs float64
	Bound   string
	Share   float64
}

// Profile is the per-kernel/per-transfer drill-down of one traced run.
type Profile struct {
	Kernels    []KernelProfileRow
	Transfers  []KernelProfileRow
	KernelNs   float64
	TransferNs float64
}

func profileRows(aggs []trace.Agg) []KernelProfileRow {
	total := trace.TotalNs(aggs)
	rows := make([]KernelProfileRow, 0, len(aggs))
	for _, a := range aggs {
		share := 0.0
		if total > 0 {
			share = a.TotalNs / total
		}
		rows = append(rows, KernelProfileRow{
			Name: a.Name, Kind: a.Kind, Calls: a.Calls,
			TotalMs: a.TotalNs / 1e6, Bound: a.Bound, Share: share,
		})
	}
	return rows
}

// ProfileData aggregates per-kernel and per-transfer time separately over
// the traced LULESH run under one model on the dGPU (the run the trace
// experiment renders) — the drill-down that exposes, e.g., the C++ AMP
// CPU-fallback kernel and the per-iteration round trips it induces.
func ProfileData(ctx context.Context, scale Scale, model modelapi.Name) Profile {
	// The profile aggregates a dedicated tracer rather than the cell's
	// capture tracer: its spans are measurement scaffolding, not run
	// output.
	spans := modelTrace(ctx, scale, model).Spans
	kernels := trace.Aggregate(spans, trace.KindKernel)
	transfers := trace.Aggregate(spans, trace.KindTransfer)
	return Profile{
		Kernels:    profileRows(kernels),
		Transfers:  profileRows(transfers),
		KernelNs:   trace.TotalNs(kernels),
		TransferNs: trace.TotalNs(transfers),
	}
}

func profileTable(w io.Writer, title string, rows []KernelProfileRow, limit int) error {
	t := report.NewTable(title, "Name", "Calls", "Total ms", "Share", "Bound")
	if len(rows) < limit {
		limit = len(rows)
	}
	for _, r := range rows[:limit] {
		t.AddRowf(r.Name, r.Calls, fmt.Sprintf("%.3f", r.TotalMs), fmt.Sprintf("%.1f%%", r.Share*100), r.Bound)
	}
	_, err := t.WriteTo(w)
	return err
}

// RunProfile renders the per-kernel and per-transfer profiles for all
// three GPU models, one runner cell per model.
func RunProfile(ctx context.Context, scale Scale, w io.Writer) error {
	models := modelapi.All()
	cells := make([]runner.Cell, len(models))
	for i, model := range models {
		model := model
		cells[i] = runner.Cell{Label: "profile/" + string(model), Run: func(cx *runner.Ctx) error {
			p := ProfileData(cx.Context(), scale, model)
			if err := profileTable(cx.Out,
				fmt.Sprintf("LULESH on the R9 280X under %s — top kernels (kernel total %.2f ms)", model, p.KernelNs/1e6),
				p.Kernels, 10); err != nil {
				return err
			}
			if len(p.Transfers) > 0 {
				if err := profileTable(cx.Out,
					fmt.Sprintf("LULESH on the R9 280X under %s — transfers (transfer total %.2f ms)", model, p.TransferNs/1e6),
					p.Transfers, 5); err != nil {
					return err
				}
			}
			fmt.Fprintln(cx.Out)
			return nil
		}}
	}
	_, err := runner.Run(ctx, w, cells)
	return err
}

// RooflineRow characterizes one app on the dGPU: arithmetic intensity,
// achieved and attainable throughput.
type RooflineRow struct {
	App string
	// IntensityFlopsPerByte is flops per byte of DRAM traffic.
	IntensityFlopsPerByte float64
	AchievedGflops        float64
	AttainableGflops      float64
	// Bound is "memory" left of the ridge, "compute" right of it.
	Bound string
}

// RooflineData runs each app under OpenCL on the dGPU and places it on
// the classic roofline from the run's flop and DRAM-byte counters:
// attainable = min(peak, intensity × bandwidth).
func RooflineData(ctx context.Context, scale Scale) ([]RooflineRow, error) {
	return runner.Map(ctx, "roofline", len(AppNames), func(cx *runner.Ctx, i int) RooflineRow {
		m := cx.TracedMachine(sim.NewDGPU)
		runApp(memoOf(cx.Context()), scaleConfigs(scale, timing.Single), AppNames[i], m, modelapi.OpenCL)

		reg := m.Tracer().Metrics()
		flops := reg.Get(trace.CtrSPFlops) + reg.Get(trace.CtrDPFlops)
		dram := reg.Get(trace.CtrDRAMBytes)
		if dram == 0 {
			dram = 1
		}
		dev := m.Accelerator()
		intensity := flops / dram
		bwRoof := intensity * dev.PeakBandwidthGBs
		peak := dev.PeakSPGflops()
		attainable := peak
		bound := "compute"
		if bwRoof < peak {
			attainable = bwRoof
			bound = "memory"
		}
		achieved := flops / m.KernelNs() // flops/ns = Gflops
		return RooflineRow{
			App:                   AppNames[i],
			IntensityFlopsPerByte: intensity,
			AchievedGflops:        achieved,
			AttainableGflops:      attainable,
			Bound:                 bound,
		}
	})
}

// RunRoofline renders the roofline table.
func RunRoofline(ctx context.Context, scale Scale, w io.Writer) error {
	t := report.NewTable("Roofline placement on the R9 280X (SP, OpenCL, DRAM-filtered traffic)",
		"Application", "Flops/DRAM-byte", "Achieved GFLOPS", "Attainable GFLOPS", "Regime")
	rows, err := RooflineData(ctx, scale)
	if err != nil {
		return err
	}
	for _, r := range rows {
		t.AddRowf(r.App,
			fmt.Sprintf("%.2f", r.IntensityFlopsPerByte),
			fmt.Sprintf("%.0f", r.AchievedGflops),
			fmt.Sprintf("%.0f", r.AttainableGflops),
			r.Bound)
	}
	_, err = t.WriteTo(w)
	return err
}
