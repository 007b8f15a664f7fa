package runner

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordSink collects every event for assertions.
type recordSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *recordSink) Emit(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// withProgress returns a context whose runs report to s.
func withProgress(s ProgressSink) context.Context {
	return WithScope(context.Background(), &Scope{Progress: s})
}

func TestProgressEventSequence(t *testing.T) {
	withJobs(t, 2)
	sink := &recordSink{}
	ctx := withProgress(sink)
	failure := errors.New("boom")
	cells := make([]Cell, 5)
	for i := range cells {
		i := i
		cells[i] = Cell{Label: fmt.Sprintf("cell-%d", i), Run: func(cx *Ctx) error {
			time.Sleep(time.Millisecond)
			if i == 3 {
				return failure
			}
			return nil
		}}
	}
	if _, err := Run(ctx, nil, cells); !errors.Is(err, failure) {
		t.Fatalf("Run error = %v, want %v", err, failure)
	}
	evs := sink.events
	if len(evs) != 2+2*len(cells) {
		t.Fatalf("got %d events, want %d:\n%+v", len(evs), 2+2*len(cells), evs)
	}
	if evs[0].Type != "run-start" || evs[len(evs)-1].Type != "run-done" {
		t.Fatalf("event bracket = %q ... %q", evs[0].Type, evs[len(evs)-1].Type)
	}
	var starts, dones, fails int
	for _, ev := range evs {
		if ev.Total != len(cells) || ev.Jobs != 2 {
			t.Fatalf("event %+v lost total/jobs", ev)
		}
		switch ev.Type {
		case "cell-start":
			starts++
		case "cell-done":
			dones++
			if ev.CellDur <= 0 {
				t.Errorf("cell-done %d carries no duration", ev.Cell)
			}
			if ev.Err != nil {
				fails++
				if ev.Cell != 3 {
					t.Errorf("failure attributed to cell %d, want 3", ev.Cell)
				}
			}
		}
	}
	if starts != 5 || dones != 5 || fails != 1 {
		t.Errorf("starts/dones/fails = %d/%d/%d, want 5/5/1", starts, dones, fails)
	}
	final := evs[len(evs)-1]
	if final.Done != 5 || final.Failed != 1 || final.P50 <= 0 {
		t.Errorf("run-done = %+v, want done 5, failed 1, positive p50", final)
	}
}

func TestTTYSinkRendersLine(t *testing.T) {
	withJobs(t, 1)
	var buf bytes.Buffer
	ctx := withProgress(&TTYSink{W: &buf})
	cells := []Cell{
		{Label: "a", Run: func(cx *Ctx) error { time.Sleep(time.Millisecond); return nil }},
		{Label: "b", Run: func(cx *Ctx) error { return nil }},
	}
	if _, err := Run(ctx, nil, cells); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "\r") {
		t.Error("TTY sink never redrew the line with \\r")
	}
	if !strings.Contains(out, "[2/2] done") {
		t.Errorf("TTY output missing completion line:\n%q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("TTY sink did not finish the line with a newline")
	}
}

func TestJSONLSinkEmitsParsableLines(t *testing.T) {
	withJobs(t, 4)
	var buf bytes.Buffer
	ctx := withProgress(&JSONLSink{W: &buf})
	cells := make([]Cell, 3)
	for i := range cells {
		cells[i] = Cell{Label: fmt.Sprintf("c%d", i), Run: func(cx *Ctx) error {
			time.Sleep(time.Millisecond)
			return nil
		}}
	}
	if _, err := Run(ctx, nil, cells); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	var sawDone bool
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		if rec["type"] == "run-done" {
			sawDone = true
			if rec["done"] != float64(3) || rec["jobs"] != float64(4) {
				t.Errorf("run-done record = %v", rec)
			}
		}
	}
	if lines != 2+2*len(cells) || !sawDone {
		t.Errorf("got %d JSONL lines (sawDone=%v), want %d", lines, sawDone, 2+2*len(cells))
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	withJobs(t, 1)
	a, b := &recordSink{}, &recordSink{}
	ctx := withProgress(MultiSink{a, b})
	if _, err := Run(ctx, nil, []Cell{{Run: func(cx *Ctx) error { return nil }}}); err != nil {
		t.Fatal(err)
	}
	if len(a.events) == 0 || len(a.events) != len(b.events) {
		t.Errorf("fan-out uneven: %d vs %d events", len(a.events), len(b.events))
	}
}

// With no sink installed the tracker is nil and every per-cell progress
// call must be a branch-and-return: zero allocations on the hot path.
func TestNilProgressTrackerAllocs(t *testing.T) {
	var p *progTracker
	if avg := testing.AllocsPerRun(1000, func() {
		p.runStart()
		p.cellStart(0, "label")
		p.cellDone(0, "label", time.Millisecond, nil, true)
		p.runDone()
	}); avg != 0 {
		t.Errorf("nil progress tracker allocates %.1f/op, want 0", avg)
	}
}

// Stats carries the per-cell wall-time distribution and renders its
// quantiles.
func TestStatsCellQuantiles(t *testing.T) {
	withJobs(t, 2)
	sc := &Scope{}
	cells := make([]Cell, 6)
	for i := range cells {
		cells[i] = Cell{Run: func(cx *Ctx) error {
			time.Sleep(time.Millisecond)
			return nil
		}}
	}
	stats, err := Run(WithScope(context.Background(), sc), nil, cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.CellNs.Count(); got != 6 {
		t.Fatalf("stats.CellNs.Count() = %d, want 6", got)
	}
	if stats.CellQuantile(0.5) < time.Millisecond {
		t.Errorf("cell p50 %v below the 1ms sleep floor", stats.CellQuantile(0.5))
	}
	if s := stats.String(); !strings.Contains(s, "cell p50") || !strings.Contains(s, "p99") {
		t.Errorf("Stats.String() lacks cell quantiles: %q", s)
	}
	if tot := sc.Stats(); tot.CellNs.Count() != 6 {
		t.Errorf("Scope.Stats().CellNs.Count() = %d, want 6", tot.CellNs.Count())
	}
}

// Cells skipped by cancellation count as done and failed in progress
// events, but like Stats the quantiles and the ETA's mean describe only
// cells that ran: the run-done p50 is the one cell's time, not a 0 ns
// skip.
func TestProgressSkipsCanceledCells(t *testing.T) {
	withJobs(t, 1)
	sink := &recordSink{}
	ctx, cancel := context.WithCancel(withProgress(sink))
	defer cancel()
	cells := make([]Cell, 8)
	for i := range cells {
		cells[i] = Cell{Label: fmt.Sprintf("cell-%d", i), Run: func(cx *Ctx) error {
			time.Sleep(5 * time.Millisecond)
			cancel()
			return nil
		}}
	}
	stats, err := Run(ctx, nil, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if stats.CellNs.Count() != 1 {
		t.Fatalf("stats counted %d cells, want the 1 that ran", stats.CellNs.Count())
	}
	final := sink.events[len(sink.events)-1]
	if final.Type != "run-done" || final.Done != 8 || final.Failed != 7 {
		t.Errorf("run-done = %+v, want done 8, failed 7", final)
	}
	if want := stats.CellQuantile(0.5); final.P50 != want {
		t.Errorf("run-done p50 = %v, want the ran cell's %v", final.P50, want)
	}
}
