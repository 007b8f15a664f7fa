package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/fault"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// perfBaselineFaultRate is the composite fault intensity of the
// baseline's resilience cell — high enough that every recovery path
// (retry, backoff, watchdog, retransmit) contributes samples to the
// hist.fault.recovery.ns distribution.
const perfBaselineFaultRate = 0.05

// RunPerfBaseline is the perfbaseline experiment: one traced cell per
// proxy app (OpenCL on the dGPU) plus a fault-injection cell and a
// co-execution cell, each printing its latency-distribution quantiles.
// Everything on stdout derives from virtual clocks and merged histogram
// buckets, so the output is byte-identical at any -jobs — while the
// run itself is a representative runner workout whose wall-clock stats
// `hetbench -exp perfbaseline -v` prints to stderr.
func RunPerfBaseline(ctx context.Context, scale Scale, w io.Writer) error {
	fmt.Fprintln(w, "Latency distributions per cell (virtual-clock ns, log-bucketed histograms; quantiles are")
	fmt.Fprintln(w, "bucket upper bounds clamped to the observed range, deterministic at any -jobs).")
	fmt.Fprintln(w)

	cfgs := scaleConfigs(scale, timing.Double)
	cells := make([]runner.Cell, 0, len(AppNames)+2)
	for _, app := range AppNames {
		app := app
		cells = append(cells, runner.Cell{Label: "perfbaseline/" + app, Run: func(cx *runner.Ctx) error {
			m := cx.TracedMachine(sim.NewDGPU)
			res := runApp(memoOf(cx.Context()), cfgs, app, m, modelapi.OpenCL)
			fmt.Fprintf(cx.Out, "--- %s (OpenCL, dGPU): %.3f ms elapsed ---\n", app, res.ElapsedNs/1e6)
			return writeHists(cx, app, m)
		}})
	}

	cells = append(cells, runner.Cell{Label: "perfbaseline/faults", Run: func(cx *runner.Ctx) error {
		p := &lulesh.Problem{Cfg: luleshConfig(scale), Precision: timing.Double, Memo: memoOf(cx.Context())}
		pol := fault.DefaultPolicy()
		m := cx.TracedMachine(sim.NewDGPU)
		clean := p.Run(m, modelapi.OpenCL)
		mf := cx.TracedMachine(sim.NewDGPU)
		inj := fault.New(faultConfig(perfBaselineFaultRate, cellSeed(SeedOf(cx.Context()), 7, 7)))
		mf.SetFaultInjector(inj, pol)
		_, totalNs, _, _ := runResilient(mf, pol, clean.Checksum,
			func() appcore.Result { return p.Run(mf, modelapi.OpenCL) })
		fmt.Fprintf(cx.Out, "--- LULESH under fault rate %.2f (OpenCL, dGPU): %.3f ms total, %d faults injected ---\n",
			perfBaselineFaultRate, totalNs/1e6, inj.Total())
		return writeHists(cx, "faults", mf)
	}})

	cells = append(cells, runner.Cell{Label: "perfbaseline/coexec", Run: func(cx *runner.Ctx) error {
		p := &lulesh.Problem{Cfg: luleshConfig(scale), Precision: timing.Double, Memo: memoOf(cx.Context())}
		s := sched.New(sched.Config{Policy: sched.Dynamic})
		m := cx.TracedMachine(sim.NewDGPU)
		m.SetCoexec(s)
		res := p.Run(m, modelapi.OpenCL)
		fmt.Fprintf(cx.Out, "--- LULESH co-executed (dynamic split, dGPU): %.3f ms elapsed ---\n", res.ElapsedNs/1e6)
		return writeHists(cx, "coexec", m)
	}})

	_, err := runner.Run(ctx, w, cells)
	return err
}

// writeHists ends a perfbaseline cell's output: the latency histograms
// its traced machines (m and any sharing its tracer) recorded, then a
// blank line.
func writeHists(cx *runner.Ctx, name string, m *sim.Machine) error {
	if err := histTable(cx.Out, name+" — latency distributions", m.Tracer().Metrics().Histograms()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(cx.Out)
	return err
}
