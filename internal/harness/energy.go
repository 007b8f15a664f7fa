package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sim"
	"hetbench/internal/sim/power"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// EnergyRow is one (app, device) energy-to-solution measurement.
type EnergyRow struct {
	App     string
	Machine string
	TimeMs  float64
	EnergyJ float64
	AvgW    float64
}

// EnergyData runs every app under OpenCL on both machines and integrates
// device energy over the simulated activity: idle power across the whole
// run, dynamic power during kernels, DRAM energy per filtered byte, and
// PCIe energy per transferred byte. This is the extension behind the
// paper's opening motivation — heterogeneous devices exist to maximize
// performance under power budgets — answering which device wins on
// energy-to-solution, not just time.
func EnergyData(ctx context.Context, scale Scale) ([]EnergyRow, error) {
	// One runner cell per (app, machine) measurement, app-major so the
	// merged rows keep the serial sweep's order (the winner table pairs
	// consecutive rows).
	type combo struct {
		app string
		mk  func() *sim.Machine
	}
	var combos []combo
	for _, app := range AppNames {
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			combos = append(combos, combo{app, mk})
		}
	}
	return runner.Map(ctx, "energy", len(combos), func(cx *runner.Ctx, i int) EnergyRow {
		m := cx.TracedMachine(combos[i].mk)
		res := runApp(memoOf(cx.Context()), scaleConfigs(scale, timing.Double), combos[i].app, m, modelapi.OpenCL)

		// The machine prices every launch's compute and DRAM energy as it
		// books it. OpenCL runs launch only on the accelerator, so that
		// counter is the device's kernel energy and all kernel time is
		// device busy time.
		energy := m.Tracer().Metrics().Get(trace.CtrEnergyJ)
		// Idle power while not computing (transfers, host phases).
		idleNs := res.ElapsedNs - res.KernelNs
		if idleNs > 0 {
			energy += power.ProfileFor(m.Accelerator()).IdleW * idleNs / 1e9
		}
		if !m.Unified() {
			st := m.Link().Stats()
			energy += power.TransferEnergyJ(st.BytesToDevice + st.BytesFromDevice)
		}
		avgW := 0.0
		if res.ElapsedNs > 0 {
			avgW = energy / (res.ElapsedNs / 1e9)
		}
		return EnergyRow{
			App: combos[i].app, Machine: m.Name(),
			TimeMs: res.ElapsedNs / 1e6, EnergyJ: energy, AvgW: avgW,
		}
	})
}

// RunEnergy renders the energy comparison.
func RunEnergy(ctx context.Context, scale Scale, w io.Writer) error {
	rows, err := EnergyData(ctx, scale)
	if err != nil {
		return err
	}
	t := report.NewTable("Energy to solution under OpenCL (device power only, DP)",
		"Application", "Device", "Time ms", "Energy J", "Avg W")
	for _, r := range rows {
		t.AddRowf(r.App, r.Machine,
			fmt.Sprintf("%.2f", r.TimeMs), fmt.Sprintf("%.3f", r.EnergyJ), fmt.Sprintf("%.0f", r.AvgW))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	// Per-app winner summary.
	t2 := report.NewTable("\nEnergy winner per application", "Application", "Winner", "Energy ratio (dGPU/APU)")
	for i := 0; i+1 < len(rows); i += 2 {
		apu, dgpu := rows[i], rows[i+1]
		winner := "APU"
		if dgpu.EnergyJ < apu.EnergyJ {
			winner = "dGPU"
		}
		t2.AddRowf(apu.App, winner, fmt.Sprintf("%.2f", dgpu.EnergyJ/apu.EnergyJ))
	}
	_, err = t2.WriteTo(w)
	return err
}
