package appcore

import (
	"fmt"
	"slices"
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// tally is a body charging flops per item: single-precision flops in
// view 0, twice as many double-precision ones in view 1.
func tally(flops float64, runs *int) func(*exec.WorkItem) {
	return exec.Uniform(exec.Views{{SPFlops: flops}, {DPFlops: 2 * flops}}, func(i int) {
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
			*log = append(*log, fmt.Sprintf("launch %d×%d %g/%g", k, n, per.SPFlops, per.DPFlops))
		},
		Transfer: func() { *log = append(*log, "transfer") },
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
	for view, want := range [][]string{
		{"launch 0×4 2/0", "launch 0×4 5/0", "launch 0×4 5/0", "launch 1×4 1/0"},
		{"launch 0×4 0/4", "launch 0×4 0/10", "launch 0×4 0/10", "launch 1×4 0/2"},
	} {
		var got []string
		rec.tape.Replay(sim.NewAPU(), logPricer(&got), view)
		if !slices.Equal(got, want) {
			t.Errorf("view %d replayed %q, want %q", view, got, want)
		}
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
			rec.Transfer()
		})
	}
	tape := &rec.tape
	if len(tape.ops) != 7 || len(tape.iters) != 3 {
		t.Fatalf("tape has %d ops and %d iterations, want 7 and 3", len(tape.ops), len(tape.iters))
	}
	m := sim.NewDGPU()
	m.SetTracer(trace.New())
	var got []string
	tape.Replay(m, logPricer(&got), 0)
	want := []string{"launch 0×8 1/0"}
	for it := 0; it < 3; it++ {
		want = append(want, "launch 1×8 2/0", "transfer")
	}
	if !slices.Equal(got, want) {
		t.Errorf("replayed %q, want %q", got, want)
	}
	if n := m.Tracer().Len(); n != 3 {
		t.Errorf("replay emitted %d spans, want 3 iteration spans", n)
	}
}

// Play executes the functional pass once per memo key and replays it in
// every later cell, whatever view the cell prices; a machine with a
// fault injector always executes, on a live Recorder that prices the
// cell's view of each op as it runs.
func TestPlayMemoizesUnlessInjected(t *testing.T) {
	memo := NewMemo(nil)
	executed := 0
	execute := func(rec *Recorder) float64 {
		executed++
		runs := 0
		rec.Launch(0, 16, true, tally(3, &runs))
		return 42
	}
	play := func(m *sim.Machine, view int) (float64, []string) {
		var got []string
		core := modelapi.NewRuntime(m, modelapi.OpenCL)
		return Play(memo, "k", view, core, *logPricer(&got), execute), got
	}
	a, la := play(sim.NewAPU(), 0)
	b, lb := play(sim.NewDGPU(), 0)
	if executed != 1 || a != 42 || b != 42 || !slices.Equal(la, lb) || len(la) != 1 {
		t.Fatalf("memoized plays: %d executions, digests %g/%g, booked %q/%q", executed, a, b, la, lb)
	}
	d, ld := play(sim.NewAPU(), 1)
	if want := []string{"launch 0×16 0/6"}; executed != 1 || d != 42 || !slices.Equal(ld, want) {
		t.Fatalf("view 1 play: %d executions, digest %g, booked %q, want %q", executed, d, ld, want)
	}
	for view, want := range [][]string{la, ld} {
		m := sim.NewDGPU()
		m.SetFaultInjector(fault.New(fault.Config{Seed: 1}), fault.DefaultPolicy())
		if c, lc := play(m, view); executed != 2+view || c != 42 || !slices.Equal(lc, want) {
			t.Errorf("injected play of view %d: %d executions, digest %g, booked %q", view, executed, c, lc)
		}
	}
}

// PerView fills every form's view of a precision with that precision's
// tally, and views run precision-major.
func TestPerViewOrder(t *testing.T) {
	per := PerView(3, func(prec timing.Precision) exec.Counters {
		return exec.Counters{Instrs: float64(10 + int(prec))}
	})
	for v, want := range []float64{10, 10, 10, 11, 11, 11} {
		if per[v].Instrs != want {
			t.Errorf("view %d holds %g, want %g", v, per[v].Instrs, want)
		}
	}
	if View(timing.Double, 0, 1) != 1 || View(timing.Single, 1, 2) != 1 || View(timing.Double, 1, 2) != 3 {
		t.Error("View does not number views precision-major")
	}
}
