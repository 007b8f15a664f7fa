package appcore

import (
	"fmt"
	"slices"
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/trace"
)

// tally is a body charging flops per item.
func tally(flops float64, runs *int) func(*exec.WorkItem) {
	return exec.Uniform(exec.Counters{SPFlops: flops}, func(i int) {
		if i == 0 {
			*runs++
		}
	})
}

// logPricer returns a Pricer that logs what a pricing pass books, in
// order, into log.
func logPricer(log *[]string) *Pricer {
	return &Pricer{
		Launch: func(k, n int, per exec.Counters) {
			*log = append(*log, fmt.Sprintf("launch %d×%d %g", k, n, per.SPFlops))
		},
		Transfer: func(bytes int64) { *log = append(*log, fmt.Sprintf("transfer %d", bytes)) },
	}
}

// A launch executes its body on the kernel's first launch and on every
// functional one, and otherwise re-uses the kernel's last measurement
// without running anything.
func TestRecorderMeasuresOrReplays(t *testing.T) {
	var rec Recorder
	runs := 0
	rec.Launch(0, 4, false, tally(2, &runs))
	rec.Launch(0, 4, true, tally(5, &runs))
	rec.Launch(0, 4, false, tally(9, &runs))
	rec.Launch(1, 4, false, tally(1, &runs))
	if runs != 3 {
		t.Errorf("%d bodies ran, want 3 (first, functional, new kernel)", runs)
	}
	var got []string
	rec.tape.Replay(sim.NewAPU(), logPricer(&got))
	want := []string{"launch 0×4 2", "launch 0×4 5", "launch 0×4 5", "launch 1×4 1"}
	if !slices.Equal(got, want) {
		t.Errorf("replayed %q, want %q", got, want)
	}
}

// Replay books ops in recorded order and opens one iteration span per
// recorded iteration, with the ops between iterations outside any.
func TestTapeReplayKeepsOrderAndIterations(t *testing.T) {
	var rec Recorder
	runs := 0
	rec.Launch(0, 8, true, tally(1, &runs))
	for it := 0; it < 3; it++ {
		rec.Iteration(func() {
			rec.Launch(1, 8, it == 0, tally(2, &runs))
			rec.Transfer(64)
		})
	}
	tape := &rec.tape
	if len(tape.ops) != 7 || len(tape.iters) != 3 {
		t.Fatalf("tape has %d ops and %d iterations, want 7 and 3", len(tape.ops), len(tape.iters))
	}
	m := sim.NewDGPU()
	m.SetTracer(trace.New())
	var got []string
	tape.Replay(m, logPricer(&got))
	want := []string{"launch 0×8 1"}
	for it := 0; it < 3; it++ {
		want = append(want, "launch 1×8 2", "transfer 64")
	}
	if !slices.Equal(got, want) {
		t.Errorf("replayed %q, want %q", got, want)
	}
	if n := m.Tracer().Len(); n != 3 {
		t.Errorf("replay emitted %d spans, want 3 iteration spans", n)
	}
}

// Play executes the functional pass once per memo key and replays it in
// every later cell; a machine with a fault injector always executes, on
// a live Recorder that prices each op as it runs.
func TestPlayMemoizesUnlessInjected(t *testing.T) {
	memo := &Memo{}
	executed := 0
	execute := func(rec *Recorder) float64 {
		executed++
		runs := 0
		rec.Launch(0, 16, true, tally(3, &runs))
		return 42
	}
	play := func(m *sim.Machine) (float64, []string) {
		var got []string
		core := modelapi.NewRuntime(m, modelapi.OpenCL)
		return Play(memo, "k", core, *logPricer(&got), execute), got
	}
	a, la := play(sim.NewAPU())
	b, lb := play(sim.NewDGPU())
	if executed != 1 || a != 42 || b != 42 || !slices.Equal(la, lb) || len(la) != 1 {
		t.Fatalf("memoized plays: %d executions, digests %g/%g, booked %q/%q", executed, a, b, la, lb)
	}
	m := sim.NewDGPU()
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1}), fault.DefaultPolicy())
	if c, lc := play(m); executed != 2 || c != 42 || !slices.Equal(lc, la) {
		t.Errorf("injected play: %d executions, digest %g, booked %q", executed, c, lc)
	}
}
