package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/readmem"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// coexecPartitioners is the row set of the co-execution sweep: the
// accelerator-only baseline, the roofline-derived static split plus two
// deliberately skewed fixed fractions (so the adaptive policies have a
// "worst static" to beat), and the two adaptive policies.
func coexecPartitioners() []struct {
	Label string
	Cfg   *sched.Config
} {
	return []struct {
		Label string
		Cfg   *sched.Config
	}{
		{"gpu-only", nil},
		{"static", &sched.Config{Policy: sched.Static}},
		{"static25", &sched.Config{Policy: sched.Static, HostFraction: 0.25}},
		{"static75", &sched.Config{Policy: sched.Static, HostFraction: 0.75}},
		{"dynamic", &sched.Config{Policy: sched.Dynamic}},
		{"hguided", &sched.Config{Policy: sched.HGuided}},
	}
}

// CoexecCell is one (machine, app, partitioner) cell of the co-execution
// sweep, run under OpenCL (the yardstick model).
type CoexecCell struct {
	Machine   string
	App       string
	Partition string

	Result appcore.Result
	// BaselineNs is the same app's gpu-only elapsed time on this machine,
	// the denominator of Speedup.
	BaselineNs float64

	Stats sched.Stats
}

// Speedup is the cell's gain over running the accelerator alone.
func (c CoexecCell) Speedup() float64 {
	if c.Result.ElapsedNs <= 0 {
		return 0
	}
	return c.BaselineNs / c.Result.ElapsedNs
}

// CoexecData sweeps readmem, LULESH and miniFE under OpenCL across the
// partitioners on both machines. The partitioners draw no randomness, so
// the sweep is bit-reproducible under any seed.
func CoexecData(ctx context.Context, scale Scale) ([]CoexecCell, error) {
	apps := []string{readmem.AppName, lulesh.AppName, minife.AppName}
	cfgs := scaleConfigs(scale, timing.Double)
	machines := []struct {
		name string
		mk   func() *sim.Machine
	}{
		{"APU", sim.NewAPU},
		{"dGPU", sim.NewDGPU},
	}
	// One runner cell per (machine, app), machine-major like the serial
	// sweep: the gpu-only baseline is every partitioner's denominator, so
	// the partitioner loop stays inside the cell that computed it.
	type combo struct{ mach, app int }
	var combos []combo
	for mi := range machines {
		for ai := range apps {
			combos = append(combos, combo{mi, ai})
		}
	}
	groups, err := runner.Map(ctx, "coexec", len(combos), func(cx *runner.Ctx, i int) []CoexecCell {
		mach, app := machines[combos[i].mach], apps[combos[i].app]
		memo := memoOf(cx.Context())
		baseline := runApp(memo, cfgs, app, cx.Machine(mach.mk), modelapi.OpenCL)
		var cells []CoexecCell
		for _, p := range coexecPartitioners() {
			cell := CoexecCell{
				Machine: mach.name, App: app, Partition: p.Label,
				BaselineNs: baseline.ElapsedNs,
			}
			if p.Cfg == nil {
				cell.Result = baseline
			} else {
				s := sched.New(*p.Cfg)
				m := cx.Machine(mach.mk)
				m.SetCoexec(s)
				cell.Result = runApp(memo, cfgs, app, m, modelapi.OpenCL)
				cell.Stats = s.Stats()
			}
			cells = append(cells, cell)
		}
		return cells
	})
	if err != nil {
		return nil, err
	}
	var cells []CoexecCell
	for _, g := range groups {
		cells = append(cells, g...)
	}
	return cells, nil
}

// RunCoexec is the coexec experiment: one table per machine comparing the
// partitioners' makespans against the accelerator-only baseline, with the
// host's share of the iteration space and the chunk/migration tallies.
func RunCoexec(ctx context.Context, scale Scale, w io.Writer) error {
	cells, err := CoexecData(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CPU+accelerator co-execution under OpenCL costs (seed %d; the partitioners are\n", SeedOf(ctx))
	fmt.Fprintln(w, "deterministic, so equal seeds give bit-identical sweeps). Irregular kernels —")
	fmt.Fprintln(w, "miniFE's SpMV stays eligible here because OpenCL uses CSR-Adaptive — run split;")
	fmt.Fprintln(w, "speedup is vs the same app on the accelerator alone.")
	fmt.Fprintln(w)
	for _, mach := range []string{"APU", "dGPU"} {
		t := report.NewTable("Co-execution on the "+mach,
			"App", "Partitioner", "Elapsed ms", "Kernel ms", "Host share", "Chunks", "Migrated", "Speedup")
		for _, c := range cells {
			if c.Machine != mach {
				continue
			}
			share := "-"
			if c.Partition != "gpu-only" {
				share = fmt.Sprintf("%.0f%%", c.Stats.HostShare()*100)
			}
			t.AddRowf(c.App, c.Partition,
				fmt.Sprintf("%.3f", c.Result.ElapsedNs/1e6),
				fmt.Sprintf("%.3f", c.Result.KernelNs/1e6),
				share, c.Stats.Chunks, c.Stats.Migrated,
				fmt.Sprintf("%.2f×", c.Speedup()))
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "The skewed static splits (static25/static75) show the cost of guessing the device")
	fmt.Fprintln(w, "ratio wrong; the adaptive policies stay near the best split without knowing the")
	fmt.Fprintln(w, "rates ahead of time, paying at most a few percent of chunking overhead for it.")
	return nil
}
