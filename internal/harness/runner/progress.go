package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"hetbench/internal/trace"
)

// Event is one progress notification from the worker pool. Events carry
// wall-clock durations and are therefore nondeterministic; they exist
// for humans and dashboards watching a run, never for experiment
// output (which stays a function of the seed and virtual clocks).
type Event struct {
	// Type is one of "run-start", "cell-start", "cell-done", "run-done".
	Type string
	// Cell and Label identify the cell for cell-scoped events.
	Cell  int
	Label string
	// Err is the cell's error, non-nil only on a failed "cell-done".
	Err error
	// CellDur is the finished cell's wall time ("cell-done" only).
	CellDur time.Duration

	// Pool-wide tallies at the moment of the event.
	Started int
	Done    int
	Failed  int
	Total   int
	Jobs    int

	// Elapsed is wall time since the pool started; ETA estimates the
	// remaining wall time from the mean cell duration so far and the
	// worker count (zero until the first cell finishes).
	Elapsed time.Duration
	ETA     time.Duration

	// P50/P95/P99 are the per-cell wall-time quantiles so far.
	P50, P95, P99 time.Duration
}

// ProgressSink receives pool progress events. Emit is called from the
// worker goroutines under the tracker's lock, so implementations need
// no further synchronization against each other but must not block for
// long. A run's sink is its Scope's Progress; a nil sink (the default)
// costs the hot path nothing.
type ProgressSink interface {
	Emit(Event)
}

// progTracker serializes event emission for one Run and maintains the
// tallies and the per-cell wall-time histogram the events carry. A nil
// tracker (no sink installed) makes every method a branch-and-return,
// keeping the no-progress hot path allocation-free.
type progTracker struct {
	mu      sync.Mutex
	sink    ProgressSink
	total   int
	jobs    int
	started int
	done    int
	failed  int
	start   time.Time
	hist    trace.Histogram
}

// newProgTracker returns nil when no sink is installed, so callers pay
// only a nil check per cell.
func newProgTracker(sink ProgressSink, total, jobs int) *progTracker {
	if sink == nil {
		return nil
	}
	return &progTracker{
		sink:  sink,
		total: total,
		jobs:  jobs,
		start: time.Now(), //hetlint:allow detnondet progress events are wall-clock by design, never experiment output
	}
}

// fill stamps the tallies, elapsed time, quantiles and ETA onto an
// event. Caller holds p.mu.
func (p *progTracker) fill(ev *Event) {
	ev.Started, ev.Done, ev.Failed = p.started, p.done, p.failed
	ev.Total, ev.Jobs = p.total, p.jobs
	ev.Elapsed = time.Since(p.start) //hetlint:allow detnondet progress events are wall-clock by design, never experiment output
	if p.hist.Count() > 0 {
		ev.P50 = time.Duration(p.hist.Quantile(0.50))
		ev.P95 = time.Duration(p.hist.Quantile(0.95))
		ev.P99 = time.Duration(p.hist.Quantile(0.99))
		remaining := p.total - p.done
		if remaining > 0 {
			perWorker := (remaining + p.jobs - 1) / p.jobs
			ev.ETA = time.Duration(p.hist.Mean() * float64(perWorker))
		}
	}
}

func (p *progTracker) runStart() {
	if p == nil {
		return
	}
	p.mu.Lock()
	ev := Event{Type: "run-start"}
	p.fill(&ev)
	p.sink.Emit(ev)
	p.mu.Unlock()
}

func (p *progTracker) cellStart(i int, label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.started++
	ev := Event{Type: "cell-start", Cell: i, Label: label}
	p.fill(&ev)
	p.sink.Emit(ev)
	p.mu.Unlock()
}

// cellDone records a finished cell. A cell skipped by cancellation
// (ran false) counts as done and failed but, as in Stats, stays out of
// the histogram and so out of the quantiles and the ETA.
func (p *progTracker) cellDone(i int, label string, d time.Duration, err error, ran bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	if err != nil {
		p.failed++
	}
	if ran {
		p.hist.Observe(float64(d))
	}
	ev := Event{Type: "cell-done", Cell: i, Label: label, CellDur: d, Err: err}
	p.fill(&ev)
	p.sink.Emit(ev)
	p.mu.Unlock()
}

func (p *progTracker) runDone() {
	if p == nil {
		return
	}
	p.mu.Lock()
	ev := Event{Type: "run-done"}
	p.fill(&ev)
	p.sink.Emit(ev)
	p.mu.Unlock()
}

// TTYSink renders pool progress as a single line redrawn in place with
// carriage returns — the `hetbench -progress` view. It assumes the
// writer is a terminal (cmd/hetbench points it at stderr) and finishes
// the line with a newline on "run-done".
type TTYSink struct {
	W io.Writer
}

// Emit implements ProgressSink.
func (s *TTYSink) Emit(ev Event) {
	switch ev.Type {
	case "cell-start", "cell-done", "run-start":
		running := ev.Started - ev.Done
		line := fmt.Sprintf("\r[%d/%d] %d running", ev.Done, ev.Total, running)
		if ev.Failed > 0 {
			line += fmt.Sprintf(", %d FAILED", ev.Failed)
		}
		if ev.Done > 0 {
			line += fmt.Sprintf(" | cell p50 %.1fms p99 %.1fms", ms(ev.P50), ms(ev.P99))
		}
		if ev.ETA > 0 {
			line += fmt.Sprintf(" | eta %.1fs", ev.ETA.Seconds())
		}
		if ev.Type == "cell-done" && ev.Label != "" {
			line += " | " + ev.Label
		}
		// Pad to blot out a longer previous line.
		fmt.Fprintf(s.W, "%-78s", line)
	case "run-done":
		line := fmt.Sprintf("\r[%d/%d] done in %.1fs", ev.Done, ev.Total, ev.Elapsed.Seconds())
		if ev.Failed > 0 {
			line += fmt.Sprintf(", %d FAILED", ev.Failed)
		}
		if ev.Done > 0 {
			line += fmt.Sprintf(" | cell p50 %.1fms p99 %.1fms", ms(ev.P50), ms(ev.P99))
		}
		fmt.Fprintf(s.W, "%-78s\n", line)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// progressRecord is the JSONL wire form of an Event: durations in
// milliseconds, the error flattened to a string.
type progressRecord struct {
	Type      string  `json:"type"`
	Cell      int     `json:"cell,omitempty"`
	Label     string  `json:"label,omitempty"`
	Error     string  `json:"error,omitempty"`
	CellMs    float64 `json:"cell_ms,omitempty"`
	Started   int     `json:"started"`
	Done      int     `json:"done"`
	Failed    int     `json:"failed,omitempty"`
	Total     int     `json:"total"`
	Jobs      int     `json:"jobs"`
	ElapsedMs float64 `json:"elapsed_ms"`
	EtaMs     float64 `json:"eta_ms,omitempty"`
	P50Ms     float64 `json:"p50_ms,omitempty"`
	P95Ms     float64 `json:"p95_ms,omitempty"`
	P99Ms     float64 `json:"p99_ms,omitempty"`
}

// JSONLSink appends one JSON object per event — the `-progress-log`
// machine-readable feed. Lines are written whole under a lock, so a
// tail -f reader never sees a torn record.
type JSONLSink struct {
	mu sync.Mutex
	W  io.Writer
}

// Emit implements ProgressSink.
func (s *JSONLSink) Emit(ev Event) {
	rec := progressRecord{
		Type: ev.Type, Cell: ev.Cell, Label: ev.Label,
		CellMs:  ms(ev.CellDur),
		Started: ev.Started, Done: ev.Done, Failed: ev.Failed,
		Total: ev.Total, Jobs: ev.Jobs,
		ElapsedMs: ms(ev.Elapsed), EtaMs: ms(ev.ETA),
		P50Ms: ms(ev.P50), P95Ms: ms(ev.P95), P99Ms: ms(ev.P99),
	}
	if ev.Err != nil {
		rec.Error = ev.Err.Error()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	s.W.Write(b)
	s.mu.Unlock()
}

// MultiSink fans each event out to every sink in order.
type MultiSink []ProgressSink

// Emit implements ProgressSink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}
