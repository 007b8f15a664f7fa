package harness

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"hetbench/internal/harness/runner"
	"hetbench/internal/trace"
)

// The -race companion to the golden suite: the three seeded sweeps that
// mix fault injection, co-execution and DAG scheduling with per-cell
// machines run under a trace capture at one worker and at eight. The
// rendered bytes, the folded span and process counts, and the full
// counter registry must all match — the merge is deterministic, not
// merely race-free.
func TestParallelSweepsMatchSerialUnderCapture(t *testing.T) {
	type snapshot struct {
		out   string
		spans int
		procs []string
		ctrs  map[string]float64
	}
	render := func(jobs int) snapshot {
		old := runner.Jobs()
		runner.SetJobs(jobs)
		defer runner.SetJobs(old)
		capture := trace.New()
		ctx := runner.WithScope(bg, &runner.Scope{Capture: capture})
		var buf bytes.Buffer
		if err := RunCoexec(ctx, ScaleSmoke, &buf); err != nil {
			t.Fatal(err)
		}
		if err := RunFaults(ctx, ScaleSmoke, &buf); err != nil {
			t.Fatal(err)
		}
		if err := RunDag(ctx, ScaleSmoke, &buf); err != nil {
			t.Fatal(err)
		}
		return snapshot{buf.String(), capture.Len(), capture.Processes(), capture.Metrics().Snapshot()}
	}
	serial := render(1)
	parallel := render(8)
	if serial.out != parallel.out {
		t.Error("rendered output differs between one and eight workers")
	}
	if serial.spans == 0 || serial.spans != parallel.spans {
		t.Errorf("folded span counts differ: %d serial vs %d parallel", serial.spans, parallel.spans)
	}
	if !reflect.DeepEqual(serial.procs, parallel.procs) {
		t.Errorf("process lists differ:\nserial:   %v\nparallel: %v", serial.procs, parallel.procs)
	}
	if len(serial.ctrs) == 0 || !reflect.DeepEqual(serial.ctrs, parallel.ctrs) {
		t.Errorf("counter registries differ:\nserial:   %v\nparallel: %v", serial.ctrs, parallel.ctrs)
	}
}

// Two captured runs at once, each under its own runner.Scope, must each
// equal its solo run: output, spans, processes, counters and cell count.
// Nothing of one run may fold into the other's capture or stats.
func TestConcurrentCapturedRunsMatchSolo(t *testing.T) {
	type snapshot struct {
		out   string
		spans []trace.Span
		procs []string
		ctrs  map[string]float64
		cells int
	}
	render := func(seed int64) (snapshot, error) {
		sc := &runner.Scope{Capture: trace.New()}
		var buf bytes.Buffer
		err := RunFaults(runner.WithScope(WithSeed(bg, seed), sc), ScaleSmoke, &buf)
		return snapshot{buf.String(), sc.Capture.Spans(), sc.Capture.Processes(), sc.Capture.Metrics().Snapshot(), sc.Stats().Cells}, err
	}
	seeds := []int64{1, 2}
	solo := make([]snapshot, len(seeds))
	for i, seed := range seeds {
		var err error
		if solo[i], err = render(seed); err != nil {
			t.Fatal(err)
		}
	}
	if solo[0].out == solo[1].out {
		t.Fatal("seeds 1 and 2 rendered the same output; the test cannot tell the runs apart")
	}
	together := make([]snapshot, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = render(seed)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seed, errs[i])
		}
		s, c := solo[i], together[i]
		if s.cells == 0 || len(s.spans) == 0 || len(s.ctrs) == 0 {
			t.Fatalf("seed %d: solo run captured nothing (%d cells, %d spans, %d counters)", seed, s.cells, len(s.spans), len(s.ctrs))
		}
		if c.out != s.out {
			t.Errorf("seed %d: output differs from its solo run", seed)
		}
		if !reflect.DeepEqual(c.spans, s.spans) {
			t.Errorf("seed %d: %d spans, solo run has %d (or their contents differ)", seed, len(c.spans), len(s.spans))
		}
		if !reflect.DeepEqual(c.procs, s.procs) {
			t.Errorf("seed %d: processes %v, solo run %v", seed, c.procs, s.procs)
		}
		if !reflect.DeepEqual(c.ctrs, s.ctrs) {
			t.Errorf("seed %d: counters differ from its solo run:\nconcurrent: %v\nsolo:       %v", seed, c.ctrs, s.ctrs)
		}
		if c.cells != s.cells {
			t.Errorf("seed %d: Scope.Stats().Cells = %d, solo run %d", seed, c.cells, s.cells)
		}
	}
}
