// Package runner executes an experiment's independent cells on a bounded
// worker pool and merges their results in deterministic cell order, so an
// experiment's output is byte-identical to the serial run regardless of
// how many workers execute it.
//
// The contract each cell must honor is isolation: a cell builds every
// sim.Machine, tracer and fault injector it needs through its own Ctx and
// shares no mutable state with other cells. The runner supplies the rest
// of the determinism story — cell outputs are buffered privately and
// concatenated in cell-index order, per-cell tracers are folded into the
// run-wide capture tracer in the same order, and the first error in cell
// order wins — so `hetbench -jobs 32` and `-jobs 1` emit the same bytes
// and the same trace.
//
// Runs are cancelable: Run and Map take a context.Context, cells observe
// it through Ctx.Context, and cells that have not started when the
// context is canceled are skipped with ctx.Err(). A panicking cell fails
// with ErrCellPanic instead of killing the pool, so one bad cell degrades
// the run rather than the process.
package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"hetbench/internal/sim"
	"hetbench/internal/trace"
)

// Cell is one independent unit of an experiment: it writes its slice of
// the experiment's output to cx.Out and builds machines via cx.Machine.
type Cell struct {
	// Label names the cell in error messages ("coexec/dGPU/LULESH").
	Label string
	Run   func(cx *Ctx) error
}

// ErrCellPanic marks a cell failure caused by a recovered panic. The
// pool survives: the panic fails only its own cell, the run is reported
// degraded through Stats.Panics, and every other cell completes.
var ErrCellPanic = errors.New("cell panicked")

// Ctx is one cell's private execution context.
type Ctx struct {
	// Index is the cell's position in the experiment's cell slice — the
	// position its output and trace occupy after the deterministic merge.
	Index int
	// Out buffers the cell's rendered output; Run concatenates the
	// buffers in cell order once every cell has finished.
	Out *bytes.Buffer

	// ctx is the run's context; long-running cells poll it through
	// Context so client disconnects and deadlines cancel in-flight work.
	ctx context.Context

	// tracer is the cell's private tracer. When the run's Scope has a
	// Capture (the -trace and -metrics flags), Run makes it before the
	// cell starts and folds it into the capture afterwards; otherwise
	// TracedMachine makes it on first use and nothing folds it.
	tracer  *trace.Tracer
	capture bool
}

// Context returns the run's context. Long-running cells should poll it
// between phases and return its Err to honor cancellation. A nil
// receiver or a Ctx built outside Run (direct Data calls from tests)
// yields a background context, so cells need no nil checks.
func (cx *Ctx) Context() context.Context {
	if cx == nil || cx.ctx == nil {
		return context.Background()
	}
	return cx.ctx
}

// Machine builds one cell-private machine. When the run captures a trace
// the machine attaches to the cell's private tracer (folded into the
// capture in cell order at merge time) instead of a tracer shared across
// concurrent cells — that sharing is exactly what would make span order
// depend on goroutine interleaving. A nil receiver is
// allowed so experiment helpers can run outside any cell (direct calls
// from tests); it degenerates to plain construction.
func (cx *Ctx) Machine(mk func() *sim.Machine) *sim.Machine {
	m := mk()
	if cx != nil && cx.capture && m.Tracer() == nil {
		m.SetTracer(cx.tracer)
	}
	return m
}

// TracedMachine builds one cell-private machine that always carries the
// cell's tracer, so the cell can read its run's counters back. Without a
// capture the cell's traced machines share one tracer that nothing
// folds, and Machine's machines stay untraced.
func (cx *Ctx) TracedMachine(mk func() *sim.Machine) *sim.Machine {
	m := cx.Machine(mk)
	if m.Tracer() == nil {
		if cx.tracer == nil {
			cx.tracer = trace.New()
		}
		m.SetTracer(cx.tracer)
	}
	return m
}

// Metrics returns the registry of the cell's private tracer, or nil when
// the run captures no trace: where a cell whose work runs on no machine
// (the fleet's analytic pricing) books its counters.
func (cx *Ctx) Metrics() *trace.Registry {
	if cx == nil || !cx.capture {
		return nil
	}
	return cx.tracer.Metrics()
}

// jobs bounds the cells running across all Runs in the process (the
// cmd/hetbench -jobs flag), so concurrent runs (the service's) share one
// pool. Everything else a run carries lives on its Scope.
var (
	mu       sync.Mutex
	jobs     = DefaultJobs()
	running  int // cells holding a pool slot, across all Runs
	slotFree = sync.NewCond(&mu)
)

// DefaultJobs is the worker count used when none is configured: the
// HETBENCH_JOBS environment variable if set to a positive integer
// (CI pins it to exercise both serial and parallel schedules), else
// GOMAXPROCS.
func DefaultJobs() int {
	if s := os.Getenv("HETBENCH_JOBS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SetJobs bounds the worker pool; n < 1 restores the default.
func SetJobs(n int) {
	mu.Lock()
	defer mu.Unlock()
	if n < 1 {
		n = DefaultJobs()
	}
	jobs = n
	slotFree.Broadcast()
}

// acquireSlot blocks until the process-wide pool has room for one more
// cell; releaseSlot gives the slot back.
func acquireSlot() {
	mu.Lock()
	for running >= jobs {
		slotFree.Wait()
	}
	running++
	mu.Unlock()
}

func releaseSlot() {
	mu.Lock()
	running--
	mu.Unlock()
	slotFree.Signal()
}

// Jobs returns the configured worker bound.
func Jobs() int {
	mu.Lock()
	defer mu.Unlock()
	return jobs
}

// Scope is what one run carries besides its cells: the capture tracer
// that cell tracers fold into (the -trace and -metrics flags), the
// progress sink, and the totals of every Run made under it. Install it
// with WithScope; Run reads it from its context once. Set Capture and
// Progress before the first Run and leave them alone while runs are in
// flight.
type Scope struct {
	// Capture, when non-nil, gives every cell a private tracer that Run
	// folds into Capture in cell order.
	Capture *trace.Tracer
	// Progress, when non-nil, receives the pool's lifecycle events.
	Progress ProgressSink

	mu    sync.Mutex
	stats Stats
}

type scopeKey struct{}

// WithScope returns ctx carrying sc: every Run under the returned
// context captures into sc, reports progress to it, and adds its Stats
// to sc's totals.
func WithScope(ctx context.Context, sc *Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, sc)
}

// fallback is the Scope of runs whose context carries none. Only the
// SetCapture, TotalStats and ResetStats shims reach it; they remain for
// the benchmark driver under _perfbench, which predates Scope.
var fallback Scope

func scopeOf(ctx context.Context) *Scope {
	if sc, ok := ctx.Value(scopeKey{}).(*Scope); ok && sc != nil {
		return sc
	}
	return &fallback
}

// Stats returns the totals of every Run made under the scope so far;
// Wall sums the pools' elapsed times (the CLI's Runs do not overlap, so
// the sum is the invocation's runner time).
func (sc *Scope) Stats() Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.stats
}

// sinks returns the scope's capture tracer and progress sink.
func (sc *Scope) sinks() (*trace.Tracer, ProgressSink) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.Capture, sc.Progress
}

// add folds one Run's stats into the scope's totals.
func (sc *Scope) add(s *Stats) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	t := &sc.stats
	t.Cells += s.Cells
	t.Panics += s.Panics
	t.Wall += s.Wall
	t.Serial += s.Serial
	t.Jobs = max(t.Jobs, s.Jobs)
	t.CellNs.Merge(&s.CellNs)
}

// SetCapture installs (or, with nil, removes) the capture tracer of runs
// whose context carries no Scope. New code puts a Scope on the context.
func SetCapture(t *trace.Tracer) {
	fallback.mu.Lock()
	defer fallback.mu.Unlock()
	fallback.Capture = t
}

// TotalStats returns the totals of the runs whose context carries no
// Scope, since ResetStats.
func TotalStats() Stats { return fallback.Stats() }

// ResetStats clears TotalStats.
func ResetStats() {
	fallback.mu.Lock()
	defer fallback.mu.Unlock()
	fallback.stats = Stats{}
}

// Stats summarizes one Run, or every Run under a Scope.
type Stats struct {
	Cells int
	Jobs  int
	// Panics counts cells that failed by panicking (recovered into
	// ErrCellPanic). A non-zero count marks the run degraded: the pool
	// survived, but some cells produced no result.
	Panics int
	// Wall is the pool's elapsed time; Serial is the sum of per-cell
	// times — the serial-run estimate the speedup compares against.
	Wall   time.Duration
	Serial time.Duration
	// CellNs is the distribution of per-cell wall times. It is observed
	// directly (never through a trace.Registry), because wall-clock
	// samples must stay out of the deterministic capture path; like Wall
	// and Serial it only ever reaches stderr reports and benchmark metrics.
	CellNs trace.Histogram
}

// Speedup is the serial-estimate-over-wall ratio.
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Serial) / float64(s.Wall)
}

// CellQuantile returns the q-quantile of the per-cell wall-time
// distribution.
func (s *Stats) CellQuantile(q float64) time.Duration {
	return time.Duration(s.CellNs.Quantile(q))
}

// String renders the stats as the one-line -v report.
func (s Stats) String() string {
	if s.Cells == 0 {
		return "runner: 0 cells"
	}
	line := fmt.Sprintf("runner: %d cells on %d workers: wall %.1fms, serial estimate %.1fms, speedup %.2fx",
		s.Cells, s.Jobs, float64(s.Wall)/1e6, float64(s.Serial)/1e6, s.Speedup())
	if s.CellNs.Count() > 0 {
		line += fmt.Sprintf(", cell p50 %.1fms p99 %.1fms",
			float64(s.CellQuantile(0.50))/1e6, float64(s.CellQuantile(0.99))/1e6)
	}
	if s.Panics > 0 {
		line += fmt.Sprintf(", %d PANICKED", s.Panics)
	}
	return line
}

// safeRun invokes one cell with panic containment: a panic becomes an
// ErrCellPanic-wrapped error carrying the panic value and stack, failing
// the one cell while the rest of the pool keeps running.
func safeRun(c Cell, cx *Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v\n%s", ErrCellPanic, r, debug.Stack())
		}
	}()
	return c.Run(cx)
}

// Run executes the cells on the bounded pool and, after all of them
// finish, replays their effects in cell order: output buffers are
// concatenated into w (nil w discards output — the Map pattern, where
// cells communicate through their closure), per-cell tracers fold into
// the capture tracer, and the first error in cell order is returned.
// The pool is shared by every Run in the process, so a cell must not
// call Run itself: once outer cells hold every slot, the inner cells
// could never start.
//
// Cancellation is cooperative at cell granularity: once ctx is canceled,
// cells that have not yet started are skipped and fail with ctx.Err();
// cells already executing observe the same context through Ctx.Context.
// Skipped cells are excluded from the Serial estimate and the per-cell
// histogram, so stats describe only work actually performed. A nil ctx
// is treated as context.Background().
func Run(ctx context.Context, w io.Writer, cells []Cell) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nJobs := Jobs()
	sc := scopeOf(ctx)
	capTracer, sink := sc.sinks()
	prog := newProgTracker(sink, len(cells), nJobs)
	ctxs := make([]*Ctx, len(cells))
	errs := make([]error, len(cells))
	durs := make([]time.Duration, len(cells))
	ran := make([]bool, len(cells))
	// The pool's wall-clock stats feed the -v speedup report only; every
	// experiment result stays a function of the seed and virtual clocks.
	start := time.Now() //hetlint:allow detnondet pool wall-clock stats are reported, never part of results
	prog.runStart()
	var wg sync.WaitGroup
	for i := range cells {
		cx := &Ctx{Index: i, Out: &bytes.Buffer{}, ctx: ctx}
		if capTracer != nil {
			cx.tracer, cx.capture = trace.New(), true
		}
		ctxs[i] = cx
		wg.Add(1)
		go func(i int, cx *Ctx) {
			defer wg.Done()
			acquireSlot()
			defer releaseSlot()
			prog.cellStart(i, cells[i].Label)
			if err := ctx.Err(); err != nil {
				// Canceled before this cell started: fail it without
				// invoking it, but still emit the progress event so the
				// sink's tallies stay balanced.
				errs[i] = err
				prog.cellDone(i, cells[i].Label, 0, err, false)
				return
			}
			ran[i] = true
			t0 := time.Now() //hetlint:allow detnondet per-cell wall time feeds the serial-estimate stat only
			errs[i] = safeRun(cells[i], cx)
			durs[i] = time.Since(t0) //hetlint:allow detnondet per-cell wall time feeds the serial-estimate stat only
			prog.cellDone(i, cells[i].Label, durs[i], errs[i], true)
		}(i, cx)
	}
	wg.Wait()
	prog.runDone()
	stats := Stats{Cells: len(cells), Jobs: nJobs, Wall: time.Since(start)} //hetlint:allow detnondet pool wall-clock stats are reported, never part of results
	for i, d := range durs {
		if !ran[i] {
			continue
		}
		stats.Serial += d
		stats.CellNs.Observe(float64(d))
		if errors.Is(errs[i], ErrCellPanic) {
			stats.Panics++
		}
	}
	sc.add(&stats)

	// Replay effects in cell order. Every executed cell's tracer folds
	// into the capture — failed cells included, whose partial spans and
	// counters are exactly what a postmortem needs — while output is
	// written only for the error-free prefix, so w never observes bytes
	// from after a failure point. The first error in cell order wins.
	var firstErr error
	for i, cx := range ctxs {
		if capTracer != nil && ran[i] {
			capTracer.Fold(cx.tracer)
		}
		if firstErr != nil {
			continue
		}
		if errs[i] != nil {
			firstErr = fmt.Errorf("runner: cell %d (%s): %w", i, cells[i].Label, errs[i])
			continue
		}
		if w != nil {
			if _, err := w.Write(cx.Out.Bytes()); err != nil {
				firstErr = err
			}
		}
	}
	return stats, firstErr
}

// Map runs f over indices 0..n-1 as pool cells and returns the results
// in index order — the shape of every Data-style sweep, where cells
// compute values instead of rendering text. The closures themselves are
// infallible, but the run can still fail by cancellation or panic, in
// which case Map returns a nil slice and the pool's first error.
func Map[T any](ctx context.Context, label string, n int, f func(cx *Ctx, i int) T) ([]T, error) {
	out := make([]T, n)
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell{
			Label: fmt.Sprintf("%s[%d]", label, i),
			Run: func(cx *Ctx) error {
				out[i] = f(cx, i)
				return nil
			},
		}
	}
	if _, err := Run(ctx, nil, cells); err != nil {
		return nil, err
	}
	return out, nil
}
