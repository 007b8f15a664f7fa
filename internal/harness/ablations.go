package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/xsbench"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// HCCell is one row of the Section VII ablation.
type HCCell struct {
	App                             string
	Model                           modelapi.Name
	ElapsedMs, KernelMs, TransferMs float64
}

// AblationHCData runs XSBench (one big upfront transfer) and LULESH
// (iterative, the AMP fallback victim) on the discrete GPU under all four
// GPU models including HC: the async-overlap model must beat C++ AMP and
// OpenACC and approach (or beat) OpenCL, because uploads hide behind
// kernels and no compiler-managed copies ever recur.
func AblationHCData(ctx context.Context, scale Scale) ([]HCCell, error) {
	// One runner cell per (app, model) row, each on its own machine; the
	// row order matches the serial table.
	apps := []string{xsbench.AppName, lulesh.AppName}
	models := append(modelapi.All(), modelapi.HC)
	c := scaleConfigs(scale, timing.Double)
	return runner.Map(ctx, "hc", len(apps)*len(models), func(cx *runner.Ctx, i int) HCCell {
		app, model := apps[i/len(models)], models[i%len(models)]
		r := runApp(memoOf(cx.Context()), c, app, cx.Machine(sim.NewDGPU), model)
		return HCCell{
			App: app, Model: model,
			ElapsedMs: r.ElapsedNs / 1e6, KernelMs: r.KernelNs / 1e6, TransferMs: r.TransferNs / 1e6,
		}
	})
}

// RunAblationHC renders the Section VII comparison.
func RunAblationHC(ctx context.Context, scale Scale, w io.Writer) error {
	t := report.NewTable("XSBench and LULESH on the R9 280X: HC's async transfers vs the 2015 models",
		"Application", "Model", "Elapsed ms", "Kernel ms", "Transfer ms (charged)")
	cells, err := AblationHCData(ctx, scale)
	if err != nil {
		return err
	}
	for _, c := range cells {
		t.AddRowf(c.App, string(c.Model), fmt.Sprintf("%.2f", c.ElapsedMs), fmt.Sprintf("%.2f", c.KernelMs), fmt.Sprintf("%.2f", c.TransferMs))
	}
	_, err = t.WriteTo(w)
	return err
}

// AblationTilesData returns (flat, tiled) CoMD OpenCL kernel times on the
// dGPU in ms — the Section VI-C "tiles gave ≈3×" claim. Uses a dedicated
// instance large enough that the force kernel dominates launch overhead.
func AblationTilesData(ctx context.Context, scale Scale) (flatMs, tiledMs float64, err error) {
	cfg := comd.Config{Nx: 16, Ny: 16, Nz: 16, Iters: 3, FunctionalIters: 1}
	if scale == ScalePaper {
		cfg.Nx, cfg.Ny, cfg.Nz = 24, 24, 24
	}
	// Two independent cells: the flat and tiled variants share nothing
	// but the (immutable) problem configuration.
	keys := []modelapi.Name{comd.OpenCLFlat, modelapi.OpenCL}
	ms, err := runner.Map(ctx, "tiles", len(keys), func(cx *runner.Ctx, i int) float64 {
		p := &comd.Problem{Cfg: cfg, Precision: timing.Single, Memo: memoOf(cx.Context())}
		return p.Run(cx.Machine(sim.NewDGPU), keys[i]).KernelNs / 1e6
	})
	if err != nil {
		return 0, 0, err
	}
	return ms[0], ms[1], nil
}

// RunAblationTiles renders the tiling ablation.
func RunAblationTiles(ctx context.Context, scale Scale, w io.Writer) error {
	flat, tiled, err := AblationTilesData(ctx, scale)
	if err != nil {
		return err
	}
	t := report.NewTable("CoMD force kernel on the R9 280X: LDS tiling (Section VI-C, paper: ≈3×)",
		"Variant", "Kernel ms", "Speedup")
	t.AddRowf("flat (no tiles)", fmt.Sprintf("%.3f", flat), "1.00")
	t.AddRowf("tiled (tile_static)", fmt.Sprintf("%.3f", tiled), fmt.Sprintf("%.2f", flat/tiled))
	_, err = t.WriteTo(w)
	return err
}

// GridTypeCell is one row of the XSBench grid-structure ablation.
type GridTypeCell struct {
	Grid                            string
	TableMB                         float64
	ElapsedMs, KernelMs, TransferMs float64
}

// AblationGridTypeData compares XSBench's unionized grid (one search,
// huge table) with the nuclide-grid structure (per-nuclide searches, ~6×
// smaller table) under OpenCL on the discrete GPU — the memory/compute
// trade behind the paper's aside that "the next step in the lookup-table
// size was 5 GB".
func AblationGridTypeData(ctx context.Context, scale Scale) ([]GridTypeCell, error) {
	base := xsbench.Config{Nuclides: 32, GridPoints: 2048, Lookups: 100_000}
	if scale == ScaleDefault {
		base = xsbench.Config{Nuclides: 48, GridPoints: 4096, Lookups: 500_000}
	}
	if scale == ScalePaper {
		base = xsbench.PaperSmall()
	}
	grids := []xsbench.GridType{xsbench.UnionizedGrid, xsbench.NuclideGridOnly}
	return runner.Map(ctx, "gridtype", len(grids), func(cx *runner.Ctx, i int) GridTypeCell {
		cfg := base
		cfg.Grid = grids[i]
		p := &xsbench.Problem{Cfg: cfg, Precision: timing.Double, Memo: memoOf(cx.Context())}
		r := p.Run(cx.Machine(sim.NewDGPU), modelapi.OpenCL)
		return GridTypeCell{
			Grid:       grids[i].String(),
			TableMB:    float64(cfg.TableBytes(timing.Double)) / (1 << 20),
			ElapsedMs:  r.ElapsedNs / 1e6,
			KernelMs:   r.KernelNs / 1e6,
			TransferMs: r.TransferNs / 1e6,
		}
	})
}

// RunAblationGridType renders the grid-structure ablation.
func RunAblationGridType(ctx context.Context, scale Scale, w io.Writer) error {
	t := report.NewTable("XSBench grid structures on the R9 280X (OpenCL): memory vs search work",
		"Grid", "Table MB", "Elapsed ms", "Kernel ms", "Transfer ms")
	cells, err := AblationGridTypeData(ctx, scale)
	if err != nil {
		return err
	}
	for _, c := range cells {
		t.AddRowf(c.Grid, fmt.Sprintf("%.0f", c.TableMB), fmt.Sprintf("%.2f", c.ElapsedMs),
			fmt.Sprintf("%.2f", c.KernelMs), fmt.Sprintf("%.2f", c.TransferMs))
	}
	_, err = t.WriteTo(w)
	return err
}

// AblationDataRegionData returns miniFE OpenACC transfer volumes on the
// dGPU with and without the hand-placed data region (ms elapsed, MB
// moved).
func AblationDataRegionData(ctx context.Context, scale Scale) (withMs, withoutMs float64, withMB, withoutMB float64, err error) {
	type cell struct{ ms, mb float64 }
	keys := []modelapi.Name{modelapi.OpenACC, minife.OpenACCPerRegion}
	out, err := runner.Map(ctx, "dataregion", len(keys), func(cx *runner.Ctx, i int) cell {
		p := &minife.Problem{Cfg: minifeConfig(scale), Precision: timing.Double, Memo: memoOf(cx.Context())}
		m := cx.Machine(sim.NewDGPU)
		r := p.Run(m, keys[i])
		st := m.Link().Stats()
		return cell{ms: r.ElapsedNs / 1e6, mb: float64(st.BytesToDevice+st.BytesFromDevice) / (1 << 20)}
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return out[0].ms, out[1].ms, out[0].mb, out[1].mb, nil
}

// RunAblationDataRegion renders the data-directive ablation.
func RunAblationDataRegion(ctx context.Context, scale Scale, w io.Writer) error {
	withMs, withoutMs, withMB, withoutMB, err := AblationDataRegionData(ctx, scale)
	if err != nil {
		return err
	}
	t := report.NewTable("miniFE OpenACC on the R9 280X: the `data` directive (Section III-B)",
		"Variant", "Elapsed ms", "PCIe traffic MB")
	t.AddRowf("with data region", fmt.Sprintf("%.2f", withMs), fmt.Sprintf("%.1f", withMB))
	t.AddRowf("per-region copies", fmt.Sprintf("%.2f", withoutMs), fmt.Sprintf("%.1f", withoutMB))
	t.AddRowf("penalty", fmt.Sprintf("%.2fx", withoutMs/withMs), fmt.Sprintf("%.1fx", withoutMB/withMB))
	_, err = t.WriteTo(w)
	return err
}
