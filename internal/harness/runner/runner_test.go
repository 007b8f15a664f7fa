package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// kernelCost is a minimal valid launch cost for tracer-plumbing tests.
func kernelCost(items int) timing.KernelCost {
	return timing.KernelCost{
		Items: items, SPFlops: 4, LoadBytes: 16, StoreBytes: 8,
		Instrs: 10, MissRate: 0.2, Coalesce: 1,
	}
}

// withJobs pins the worker bound for one test and restores it after.
func withJobs(t *testing.T, n int) {
	t.Helper()
	old := Jobs()
	SetJobs(n)
	t.Cleanup(func() { SetJobs(old) })
}

// Output must be concatenated in cell order no matter how the pool
// schedules the cells; the later cells finish first here by construction.
func TestRunMergesInCellOrder(t *testing.T) {
	withJobs(t, 8)
	const n = 16
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell{Label: fmt.Sprintf("cell-%d", i), Run: func(cx *Ctx) error {
			// Early cells sleep longest, so completion order is reversed.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			fmt.Fprintf(cx.Out, "cell %02d\n", i)
			return nil
		}}
	}
	var buf bytes.Buffer
	stats, err := Run(context.Background(), &buf, cells)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&want, "cell %02d\n", i)
	}
	if buf.String() != want.String() {
		t.Errorf("merged output out of cell order:\n%s", buf.String())
	}
	if stats.Cells != n || stats.Jobs != 8 {
		t.Errorf("stats = %+v, want %d cells on 8 workers", stats, n)
	}
	if stats.Serial < stats.Wall {
		t.Errorf("serial estimate %v below wall %v", stats.Serial, stats.Wall)
	}
}

// peakCells returns n short cells that record the peak number of them
// running at once.
func peakCells(n int) ([]Cell, *atomic.Int64) {
	var active, peak atomic.Int64
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Run: func(cx *Ctx) error {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			active.Add(-1)
			return nil
		}}
	}
	return cells, &peak
}

// The pool must never run more than the configured number of cells at
// once.
func TestRunBoundsConcurrency(t *testing.T) {
	withJobs(t, 3)
	cells, peak := peakCells(24)
	if _, err := Run(context.Background(), nil, cells); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent cells, want at most 3", p)
	}
}

// The bound is process-wide: concurrent Runs share the pool, so two of
// them together still never run more than the configured number of cells.
func TestRunBoundsConcurrencyAcrossRuns(t *testing.T) {
	withJobs(t, 3)
	cells, peak := peakCells(12)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(context.Background(), nil, cells); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent cells across two runs, want at most 3", p)
	}
}

// The first error in cell order wins, even when a later-indexed cell
// fails first in wall time.
func TestRunFirstErrorInCellOrder(t *testing.T) {
	withJobs(t, 4)
	errA, errB := errors.New("cell 1 failed"), errors.New("cell 3 failed")
	cells := []Cell{
		{Label: "ok", Run: func(cx *Ctx) error { return nil }},
		{Label: "slow-fail", Run: func(cx *Ctx) error { time.Sleep(5 * time.Millisecond); return errA }},
		{Label: "ok", Run: func(cx *Ctx) error { return nil }},
		{Label: "fast-fail", Run: func(cx *Ctx) error { return errB }},
	}
	_, err := Run(context.Background(), nil, cells)
	if !errors.Is(err, errA) {
		t.Fatalf("Run error = %v, want the cell-order-first %v", err, errA)
	}
	if !strings.Contains(err.Error(), "slow-fail") {
		t.Errorf("error %q does not name the failing cell", err)
	}
}

// Regression for the error-path accounting bug: a failing cell's tracer
// must still fold into the capture (its partial spans and counters are
// the postmortem), and the cell still counts in Stats. The old merge
// loop returned at the first error, dropping the failing cell's tracer
// and every later cell's.
func TestRunErrorCellStillFoldsTracerAndCounts(t *testing.T) {
	withJobs(t, 2)
	cap := trace.New()
	ctx := WithScope(context.Background(), &Scope{Capture: cap})
	boom := errors.New("boom")
	cells := []Cell{
		{Label: "ok", Run: func(cx *Ctx) error {
			m := cx.Machine(sim.NewDGPU)
			m.Launch(sim.OnAccelerator, "k-ok", kernelCost(1000))
			return nil
		}},
		{Label: "fails-after-launch", Run: func(cx *Ctx) error {
			m := cx.Machine(sim.NewDGPU)
			m.Launch(sim.OnAccelerator, "k-fail", kernelCost(2000))
			return boom
		}},
		{Label: "ok-after-failure", Run: func(cx *Ctx) error {
			m := cx.Machine(sim.NewDGPU)
			m.Launch(sim.OnAccelerator, "k-late", kernelCost(3000))
			return nil
		}},
	}
	stats, err := Run(ctx, nil, cells)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if stats.Cells != 3 || stats.CellNs.Count() != 3 {
		t.Errorf("stats = %+v, want all 3 cells counted (CellNs n=%d)", stats, stats.CellNs.Count())
	}
	var names []string
	for _, sp := range cap.Spans() {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"k-ok", "k-fail", "k-late"} {
		if !strings.Contains(joined, want) {
			t.Errorf("capture is missing spans from %q; folded spans: %v", want, names)
		}
	}
}

// Canceling the run context skips cells that have not started: they fail
// with ctx.Err(), are excluded from the serial estimate, and the first
// error in cell order reports the cancellation.
func TestRunCancellationSkipsPendingCells(t *testing.T) {
	withJobs(t, 1) // serialize so cancellation lands between cells
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	cells := make([]Cell, 8)
	for i := range cells {
		cells[i] = Cell{Label: fmt.Sprintf("cell-%d", i), Run: func(cx *Ctx) error {
			if started.Add(1) == 2 {
				cancel() // cancel while cell 1 is in flight
			}
			return nil
		}}
	}
	stats, err := Run(ctx, nil, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 8 {
		t.Errorf("all %d cells ran despite cancellation", n)
	}
	if stats.CellNs.Count() != uint64(started.Load()) {
		t.Errorf("CellNs counted %d cells, want only the %d that ran",
			stats.CellNs.Count(), started.Load())
	}
	if stats.Cells != 8 {
		t.Errorf("stats.Cells = %d, want 8 (scheduled count)", stats.Cells)
	}
}

// Cells observe the run context through Ctx.Context, so in-flight work
// can return early on cancellation; nil receivers and plain Ctx values
// degrade to a background context.
func TestCtxContextPlumbing(t *testing.T) {
	withJobs(t, 1)
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	var got any
	cells := []Cell{{Run: func(cx *Ctx) error {
		got = cx.Context().Value(key{})
		return nil
	}}}
	if _, err := Run(ctx, nil, cells); err != nil {
		t.Fatal(err)
	}
	if got != "v" {
		t.Errorf("cell saw context value %v, want v", got)
	}
	var nilCx *Ctx
	if nilCx.Context() == nil || (&Ctx{}).Context() == nil {
		t.Error("nil/zero Ctx.Context() must degrade to a background context, not nil")
	}
}

// A panicking cell fails with ErrCellPanic, marks the run degraded via
// Stats.Panics, and leaves every other cell's result intact — the pool
// survives its worst cell.
func TestRunPanicRecovery(t *testing.T) {
	withJobs(t, 4)
	var ok atomic.Int64
	cells := make([]Cell, 6)
	for i := range cells {
		i := i
		cells[i] = Cell{Label: fmt.Sprintf("cell-%d", i), Run: func(cx *Ctx) error {
			if i == 2 {
				panic("injected cell panic")
			}
			ok.Add(1)
			return nil
		}}
	}
	stats, err := Run(context.Background(), nil, cells)
	if !errors.Is(err, ErrCellPanic) {
		t.Fatalf("Run error = %v, want ErrCellPanic", err)
	}
	if !strings.Contains(err.Error(), "injected cell panic") {
		t.Errorf("error %q does not carry the panic value", err)
	}
	if stats.Panics != 1 {
		t.Errorf("stats.Panics = %d, want 1", stats.Panics)
	}
	if got := ok.Load(); got != 5 {
		t.Errorf("%d healthy cells completed, want 5 — the panic must not kill the pool", got)
	}
	if !strings.Contains(stats.String(), "1 PANICKED") {
		t.Errorf("Stats.String() = %q does not flag the degraded run", stats.String())
	}
}

// Map returns results in index order.
func TestMapOrdersResults(t *testing.T) {
	withJobs(t, 8)
	got, err := Map(context.Background(), "square", 20, func(cx *Ctx, i int) int {
		time.Sleep(time.Duration(20-i) * time.Millisecond)
		return i * i
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// Map surfaces pool failures (a canceled context) instead of panicking.
func TestMapReturnsPoolError(t *testing.T) {
	withJobs(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := Map(ctx, "canceled", 4, func(cx *Ctx, i int) int { return i })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map error = %v, want context.Canceled", err)
	}
	if got != nil {
		t.Errorf("Map returned results %v alongside an error", got)
	}
}

// With a capture installed, machines built through the Ctx trace into
// per-cell tracers that fold into the capture in cell order — so the
// merged span set is identical at any worker count.
func TestCaptureFoldsDeterministically(t *testing.T) {
	// histSummary renders the merged histograms bit-for-bit (quantiles,
	// means, counts) so any worker-count-dependent fold order shows up.
	histSummary := func(reg *trace.Registry) string {
		var b strings.Builder
		for _, name := range reg.HistNames() {
			h := reg.Hist(name)
			fmt.Fprintf(&b, "%s: n=%d mean=%b min=%b max=%b q50=%b q95=%b q99=%b\n",
				name, h.Count(), h.Mean(), h.Quantile(0), h.Max(),
				h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
		return b.String()
	}
	render := func(jobs int) ([]trace.Span, []string, map[string]float64, string) {
		withJobs(t, jobs)
		cap := trace.New()
		ctx := WithScope(context.Background(), &Scope{Capture: cap})
		cells := make([]Cell, 6)
		for i := range cells {
			i := i
			cells[i] = Cell{Run: func(cx *Ctx) error {
				m := cx.Machine(sim.NewDGPU)
				m.Launch(sim.OnAccelerator, fmt.Sprintf("k%d", i), kernelCost(1000*(i+1)))
				return nil
			}}
		}
		if _, err := Run(ctx, nil, cells); err != nil {
			t.Fatal(err)
		}
		return cap.Spans(), cap.Processes(), cap.Metrics().Snapshot(), histSummary(cap.Metrics())
	}
	spans1, procs1, ctrs1, hists1 := render(1)
	spans8, procs8, ctrs8, hists8 := render(8)
	if len(spans1) != len(spans8) {
		t.Fatalf("span count differs: %d serial vs %d parallel", len(spans1), len(spans8))
	}
	for i := range spans1 {
		if spans1[i] != spans8[i] {
			t.Fatalf("span %d differs:\nserial:   %+v\nparallel: %+v", i, spans1[i], spans8[i])
		}
	}
	if fmt.Sprint(procs1) != fmt.Sprint(procs8) {
		t.Errorf("process lists differ: %v vs %v", procs1, procs8)
	}
	if len(ctrs1) == 0 || fmt.Sprint(ctrs1) != fmt.Sprint(ctrs8) {
		t.Errorf("counter registries differ: %v vs %v", ctrs1, ctrs8)
	}
	if hists1 == "" || hists1 != hists8 {
		t.Errorf("merged histograms differ across worker counts:\nserial:\n%sparallel:\n%s", hists1, hists8)
	}
}

// Without a capture, Ctx.Machine is plain construction, and a nil Ctx
// (direct Data calls from tests) is tolerated.
func TestMachineWithoutCapture(t *testing.T) {
	cx := &Ctx{Out: &bytes.Buffer{}}
	if m := cx.Machine(sim.NewAPU); m.Tracer() != nil {
		t.Error("machine picked up a tracer with no capture installed")
	}
	var nilCx *Ctx
	if m := nilCx.Machine(sim.NewDGPU); m == nil || m.Tracer() != nil {
		t.Error("nil Ctx did not degenerate to plain construction")
	}
}

func TestSetJobsDefaultAndStats(t *testing.T) {
	withJobs(t, 5)
	if Jobs() != 5 {
		t.Fatalf("Jobs() = %d after SetJobs(5)", Jobs())
	}
	SetJobs(0)
	if Jobs() != DefaultJobs() {
		t.Errorf("SetJobs(0) did not restore the default %d", DefaultJobs())
	}

	s := Stats{Cells: 4, Jobs: 2, Wall: 50 * time.Millisecond, Serial: 100 * time.Millisecond}
	if got := s.Speedup(); got != 2 {
		t.Errorf("Speedup = %g, want 2", got)
	}
	if !strings.Contains(s.String(), "4 cells") {
		t.Errorf("Stats.String() = %q", s.String())
	}
}

// oneCell is a run of a single cell that builds one traced-capable
// machine.
func oneCell() []Cell {
	return []Cell{{Run: func(cx *Ctx) error {
		cx.Machine(sim.NewDGPU).Launch(sim.OnAccelerator, "k", kernelCost(1000))
		return nil
	}}}
}

// A cell's traced machines share one tracer and its plain machines stay
// untraced. Without a capture that tracer is the cell's own and nothing
// folds it; under a capture it is the cell's capture tracer, folded in
// cell order.
func TestTracedMachinesShareTheCellTracer(t *testing.T) {
	withJobs(t, 2)
	const n = 3
	run := func(sc *Scope) []*trace.Tracer {
		t.Helper()
		tracers := make([]*trace.Tracer, n)
		cells := make([]Cell, n)
		for i := range cells {
			cells[i] = Cell{Run: func(cx *Ctx) error {
				a, b := cx.TracedMachine(sim.NewDGPU), cx.TracedMachine(sim.NewAPU)
				if a.Tracer() == nil || a.Tracer() != b.Tracer() {
					return fmt.Errorf("cell %d: traced machines on tracers %p and %p, want one", i, a.Tracer(), b.Tracer())
				}
				if got := cx.Machine(sim.NewDGPU).Tracer(); (sc.Capture == nil) != (got == nil) {
					return fmt.Errorf("cell %d: plain machine's tracer %p under capture %p", i, got, sc.Capture)
				}
				if (sc.Capture == nil) != (cx.Metrics() == nil) {
					return fmt.Errorf("cell %d: Metrics() is %p under capture %p", i, cx.Metrics(), sc.Capture)
				}
				a.Launch(sim.OnAccelerator, fmt.Sprintf("k%d", i), kernelCost(1000))
				b.Launch(sim.OnAccelerator, fmt.Sprintf("k%d", i), kernelCost(1000))
				tracers[i] = a.Tracer()
				return nil
			}}
		}
		if _, err := Run(WithScope(context.Background(), sc), nil, cells); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n; i++ {
			if tracers[i] == tracers[0] {
				t.Errorf("cells 0 and %d share a tracer", i)
			}
		}
		return tracers
	}

	for i, tr := range run(&Scope{}) {
		if procs, spans := tr.Processes(), tr.Spans(); len(procs) != 2 || len(spans) != 2 {
			t.Errorf("uncaptured cell %d: tracer holds %d machines and %d spans, want its own 2 and 2", i, len(procs), len(spans))
		}
	}

	sc := &Scope{Capture: trace.New()}
	run(sc)
	var got []string
	for _, s := range sc.Capture.Spans() {
		got = append(got, s.Name)
	}
	if want := "k0 k0 k1 k1 k2 k2"; strings.Join(got, " ") != want {
		t.Errorf("capture spans %q, want %q in cell order", strings.Join(got, " "), want)
	}
	dgpu, apu := sim.NewDGPU().Name(), sim.NewAPU().Name()
	if procs := sc.Capture.Processes(); fmt.Sprint(procs) != fmt.Sprint([]string{dgpu, apu, dgpu, dgpu, apu, dgpu, dgpu, apu, dgpu}) {
		t.Errorf("capture machines %q, not each cell's three in cell order", procs)
	}
}

// Runs under a Scope add their stats to it, capture into its tracer, and
// leave the fallback scope alone.
func TestScopeCollectsItsRuns(t *testing.T) {
	withJobs(t, 2)
	ResetStats()
	sc := &Scope{Capture: trace.New()}
	ctx := WithScope(context.Background(), sc)
	for range 2 {
		if _, err := Run(ctx, nil, oneCell()); err != nil {
			t.Fatal(err)
		}
	}
	if st := sc.Stats(); st.Cells != 2 || st.Jobs != 2 || st.CellNs.Count() != 2 {
		t.Errorf("Scope.Stats() = %+v, want 2 cells on 2 workers", st)
	}
	if sc.Capture.Len() == 0 {
		t.Error("scoped runs left the scope's capture empty")
	}
	if tot := TotalStats(); tot.Cells != 0 {
		t.Errorf("TotalStats().Cells = %d after scoped runs, want 0", tot.Cells)
	}
}

// Runs without a Scope use the fallback that SetCapture, TotalStats and
// ResetStats reach; the benchmark driver under _perfbench depends on it.
func TestFallbackScope(t *testing.T) {
	withJobs(t, 2)
	ResetStats()
	cap := trace.New()
	SetCapture(cap)
	defer SetCapture(nil)
	for range 2 {
		if _, err := Run(context.Background(), nil, oneCell()); err != nil {
			t.Fatal(err)
		}
	}
	if tot := TotalStats(); tot.Cells != 2 {
		t.Errorf("TotalStats().Cells = %d after two 1-cell runs", tot.Cells)
	}
	if cap.Len() == 0 {
		t.Error("SetCapture's tracer captured nothing")
	}
	ResetStats()
	if tot := TotalStats(); tot.Cells != 0 {
		t.Errorf("TotalStats().Cells = %d after ResetStats", tot.Cells)
	}
}

// CellQuantile on the empty distribution is zero for every q; with a
// single cell, every quantile collapses to that cell's duration.
func TestCellQuantileEmptyAndSingle(t *testing.T) {
	var empty Stats
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if d := empty.CellQuantile(q); d != 0 {
			t.Errorf("empty Stats.CellQuantile(%g) = %v, want 0", q, d)
		}
	}

	var single Stats
	single.CellNs.Observe(float64(7 * time.Millisecond))
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if d := single.CellQuantile(q); d != 7*time.Millisecond {
			t.Errorf("single-cell CellQuantile(%g) = %v, want 7ms", q, d)
		}
	}
}
