package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/fault"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
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

	apps := []string{"read-benchmark", "LULESH", "CoMD", "XSBench", "miniFE"}
	cells := make([]runner.Cell, 0, len(apps)+2)
	for _, app := range apps {
		app := app
		cells = append(cells, runner.Cell{Label: "perfbaseline/" + app, Run: func(cx *runner.Ctx) error {
			w := newWorkloads(cx.Context(), scale, timing.Double)
			r, ok := w.runnerByName(app)
			if !ok {
				return fmt.Errorf("unknown app %q", app)
			}
			m := sim.NewDGPU()
			t := trace.New()
			m.SetTracer(t)
			res := r.run(m, modelapi.OpenCL)
			fmt.Fprintf(cx.Out, "--- %s (OpenCL, dGPU): %.3f ms elapsed ---\n", app, res.ElapsedNs/1e6)
			if err := histTable(cx.Out, fmt.Sprintf("%s — latency distributions", app), t.Metrics()); err != nil {
				return err
			}
			fmt.Fprintln(cx.Out)
			return nil
		}})
	}

	cells = append(cells, runner.Cell{Label: "perfbaseline/faults", Run: func(cx *runner.Ctx) error {
		w := newWorkloads(cx.Context(), scale, timing.Double)
		pol := fault.DefaultPolicy()
		m := sim.NewDGPU()
		t := trace.New()
		m.SetTracer(t)
		clean := w.Lulesh().Run(m, modelapi.OpenCL)
		mf := sim.NewDGPU()
		mf.SetTracer(t)
		inj := fault.New(faultConfig(perfBaselineFaultRate, cellSeed(SeedOf(cx.Context()), 7, 7)))
		mf.SetFaultInjector(inj, pol)
		_, totalNs, _, _ := runResilient(mf, pol, clean.Checksum,
			func() appcore.Result { return w.Lulesh().Run(mf, modelapi.OpenCL) })
		fmt.Fprintf(cx.Out, "--- LULESH under fault rate %.2f (OpenCL, dGPU): %.3f ms total, %d faults injected ---\n",
			perfBaselineFaultRate, totalNs/1e6, inj.Total())
		if err := histTable(cx.Out, "faults — latency distributions", t.Metrics()); err != nil {
			return err
		}
		fmt.Fprintln(cx.Out)
		return nil
	}})

	cells = append(cells, runner.Cell{Label: "perfbaseline/coexec", Run: func(cx *runner.Ctx) error {
		w := newWorkloads(cx.Context(), scale, timing.Double)
		s := sched.New(sched.Config{Policy: sched.Dynamic})
		m := sim.NewDGPU()
		t := trace.New()
		m.SetTracer(t)
		m.SetCoexec(s)
		res := w.Lulesh().Run(m, modelapi.OpenCL)
		fmt.Fprintf(cx.Out, "--- LULESH co-executed (dynamic split, dGPU): %.3f ms elapsed ---\n", res.ElapsedNs/1e6)
		if err := histTable(cx.Out, "coexec — latency distributions", t.Metrics()); err != nil {
			return err
		}
		fmt.Fprintln(cx.Out)
		return nil
	}})

	_, err := runner.Run(ctx, w, cells)
	return err
}
