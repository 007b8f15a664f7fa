package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// ModelTrace is one model's fully-traced LULESH run on the dGPU: what the
// run's tracer recorded, copied out of it. It is shared through the run
// memo and must never be mutated.
type ModelTrace struct {
	Model    modelapi.Name
	Result   appcore.Result
	Spans    []trace.Span
	Counters map[string]float64
	Hists    map[string]*trace.Histogram
}

// modelTraceKey keys a traced run in the run memo.
type modelTraceKey struct {
	scale Scale
	model modelapi.Name
}

// modelTrace runs LULESH under one GPU model on the dGPU with a fresh
// dedicated tracer, the unit of the trace and profile experiments' runner
// cells. Both experiments read the same run, so it executes once per
// (scale, model) under a run memo.
func modelTrace(ctx context.Context, scale Scale, model modelapi.Name) ModelTrace {
	return appcore.Memoize(memoOf(ctx), modelTraceKey{scale, model}, func() ModelTrace {
		w := newWorkloads(ctx, scale, timing.Double)
		m := sim.NewDGPU()
		t := trace.New()
		m.SetTracer(t)
		res := w.Lulesh().Run(m, model)
		return ModelTrace{
			Model: model, Result: res, Spans: t.Spans(),
			Counters: t.Metrics().Snapshot(), Hists: t.Metrics().Histograms(),
		}
	})
}

// tracedMachine builds a cell's machine with a tracer attached: the
// cell's capture tracer when the run captures one, else a dedicated one,
// so the cell can read its run's counters back.
func tracedMachine(cx *runner.Ctx, mk func() *sim.Machine) *sim.Machine {
	m := cx.Machine(mk)
	if m.Tracer() == nil {
		m.SetTracer(trace.New())
	}
	return m
}

// lastIteration returns the last completed iteration span, the timeline's
// representative steady-state window (the leading functional iterations
// pay one-time staging; the replayed tail is what the paper measures).
func lastIteration(spans []trace.Span) (trace.Span, bool) {
	var best trace.Span
	found := false
	for _, s := range spans {
		if s.Kind != trace.KindIteration {
			continue
		}
		if !found || s.StartNs > best.StartNs {
			best = s
			found = true
		}
	}
	return best, found
}

// timelineBars are the spans rendered per iteration window; beyond this
// the ASCII chart stops being readable.
const timelineBars = 20

// iterationTimeline renders one iteration's kernel/transfer spans as an
// ASCII Gantt chart, longest operations first when clipping.
func iterationTimeline(title string, it trace.Span, spans []trace.Span) *report.Timeline {
	var ops []trace.Span
	for _, s := range spans {
		if s.Kind != trace.KindKernel && s.Kind != trace.KindTransfer {
			continue
		}
		if s.StartNs < it.StartNs || s.StartNs >= it.EndNs() {
			continue
		}
		ops = append(ops, s)
	}
	if len(ops) > timelineBars {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].DurNs > ops[j].DurNs })
		ops = ops[:timelineBars]
	}
	ops = trace.ByStart(ops)
	tl := report.NewTimeline(title, it.StartNs, it.EndNs())
	for _, s := range ops {
		label := s.Name
		if s.Dir != "" {
			label = fmt.Sprintf("%s (%s, %s)", s.Name, s.Dir, report.Bytes(s.Bytes))
		}
		tl.Add(s.Track, label, s.StartNs, s.DurNs)
	}
	return tl
}

// RunTrace is the trace experiment: LULESH under all three GPU models on
// the R9 280X, each rendered as a representative-iteration timeline plus
// aggregate kernel/transfer tables and the run's counter registry. The
// C++ AMP timeline shows the CPU-fallback kernel and the per-iteration
// view round trips it induces dominating the step.
func RunTrace(ctx context.Context, scale Scale, w io.Writer) error {
	models := modelapi.All()
	cells := make([]runner.Cell, len(models))
	for i, model := range models {
		model := model
		cells[i] = runner.Cell{Label: "trace/" + string(model), Run: func(cx *runner.Ctx) error {
			mt := modelTrace(cx.Context(), scale, model)
			out := cx.Out
			spans := mt.Spans
			fmt.Fprintf(out, "--- LULESH on the R9 280X under %s: %.3f ms elapsed (kernel %.3f ms, transfer %.3f ms) ---\n\n",
				mt.Model, mt.Result.ElapsedNs/1e6, mt.Result.KernelNs/1e6, mt.Result.TransferNs/1e6)

			if it, ok := lastIteration(spans); ok {
				tl := iterationTimeline(
					fmt.Sprintf("%s — iteration %q (top %d operations)", mt.Model, it.Name, timelineBars),
					it, spans)
				if _, err := tl.WriteTo(out); err != nil {
					return err
				}
				fmt.Fprintln(out)
			}

			kernels := trace.Aggregate(spans, trace.KindKernel)
			if err := aggTable(out, fmt.Sprintf("%s — kernels by total time", mt.Model), kernels, 8); err != nil {
				return err
			}
			if transfers := trace.Aggregate(spans, trace.KindTransfer); len(transfers) > 0 {
				if err := aggTable(out, fmt.Sprintf("%s — transfers by total time", mt.Model), transfers, 5); err != nil {
					return err
				}
			}

			if err := counterTable(out, fmt.Sprintf("%s — run counters", mt.Model), mt.Counters); err != nil {
				return err
			}
			if err := histTable(out, fmt.Sprintf("%s — latency distributions", mt.Model), mt.Hists); err != nil {
				return err
			}
			fmt.Fprintln(out)
			return nil
		}}
	}
	_, err := runner.Run(ctx, w, cells)
	return err
}

func aggTable(w io.Writer, title string, aggs []trace.Agg, limit int) error {
	total := trace.TotalNs(aggs)
	t := report.NewTable(title, "Name", "Calls", "Total ms", "Share", "Bytes", "Bound")
	if len(aggs) < limit {
		limit = len(aggs)
	}
	for _, a := range aggs[:limit] {
		share := 0.0
		if total > 0 {
			share = a.TotalNs / total
		}
		t.AddRowf(a.Name, a.Calls,
			fmt.Sprintf("%.3f", a.TotalNs/1e6),
			fmt.Sprintf("%.1f%%", share*100),
			report.Bytes(a.Bytes), a.Bound)
	}
	_, err := t.WriteTo(w)
	return err
}

// counterRows picks the registry counters worth a table row, in
// presentation order.
var counterRows = []struct{ name, label, unit string }{
	{trace.CtrKernelLaunches, "kernel launches", ""},
	{trace.CtrKernelNs, "kernel time", "ms"},
	{trace.CtrTransferCount, "transfers", ""},
	{trace.CtrTransferNs, "transfer time", "ms"},
	{trace.CtrBytesH2D, "bytes h2d", "B"},
	{trace.CtrBytesD2H, "bytes d2h", "B"},
	{trace.CtrDRAMBytes, "DRAM traffic", "B"},
	{trace.CtrLDSBytes, "LDS traffic", "B"},
	{trace.CtrEnergyJ, "energy", "J"},
	// Resilience counters: zero (and therefore hidden) unless the run
	// executed under fault injection.
	{trace.CtrFaultNs, "fault time", "ms"},
	{trace.CtrRetries, "retries", ""},
	{trace.CtrBackoffNs, "backoff time", "ms"},
	{trace.CtrWatchdogKills, "watchdog kills", ""},
	{trace.CtrFallbacks, "host fallbacks", ""},
	{trace.CtrRetransmits, "retransmits", ""},
	{trace.CtrSDCRedos, "SDC redos", ""},
}

// histLabels maps the registry's histogram names to table labels, in
// presentation order. Unknown names render under their raw name after
// these.
var histLabels = []struct{ name, label string }{
	{trace.HistKernelNs, "kernel latency"},
	{trace.HistTransferNs, "transfer latency"},
	{trace.HistChunkNs, "chunk service time"},
	{trace.HistFaultNs, "fault recovery"},
}

// histTable renders a run's latency histograms as quantile rows. The
// quantiles are pure functions of merged bucket counts over virtual-clock
// durations, so the table is deterministic at any worker count.
func histTable(w io.Writer, title string, hists map[string]*trace.Histogram) error {
	if len(hists) == 0 {
		return nil
	}
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	label := make(map[string]string, len(histLabels))
	order := make(map[string]int, len(histLabels))
	for i, h := range histLabels {
		label[h.name] = h.label
		order[h.name] = i
	}
	sort.SliceStable(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return names[i] < names[j]
	})
	t := report.NewTable(title, "Distribution", "Count", "p50 ms", "p95 ms", "p99 ms", "Max ms")
	for _, name := range names {
		h := hists[name]
		if h.Count() == 0 {
			continue
		}
		lbl := label[name]
		if lbl == "" {
			lbl = name
		}
		t.AddRowf(lbl, h.Count(),
			fmt.Sprintf("%.3f", h.Quantile(0.50)/1e6),
			fmt.Sprintf("%.3f", h.Quantile(0.95)/1e6),
			fmt.Sprintf("%.3f", h.Quantile(0.99)/1e6),
			fmt.Sprintf("%.3f", h.Max()/1e6))
	}
	_, err := t.WriteTo(w)
	return err
}

func counterTable(w io.Writer, title string, counters map[string]float64) error {
	t := report.NewTable(title, "Counter", "Value")
	for _, c := range counterRows {
		v := counters[c.name]
		if v == 0 {
			continue
		}
		var val string
		switch c.unit {
		case "ms":
			val = fmt.Sprintf("%.3f ms", v/1e6)
		case "B":
			val = report.Bytes(int64(v))
		case "J":
			val = fmt.Sprintf("%.4f J", v)
		default:
			val = fmt.Sprintf("%.0f", v)
		}
		t.AddRowf(c.label, val)
	}
	_, err := t.WriteTo(w)
	return err
}
