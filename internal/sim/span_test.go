package sim

import (
	"testing"

	"hetbench/internal/trace"
)

// spansByName indexes a tracer's spans by name; the tests give every span
// a distinct name.
func spansByName(t *testing.T, tr *trace.Tracer) map[string]trace.Span {
	t.Helper()
	out := make(map[string]trace.Span)
	for _, s := range tr.Spans() {
		if _, dup := out[s.Name]; dup {
			t.Fatalf("span name %q emitted twice", s.Name)
		}
		out[s.Name] = s
	}
	return out
}

// Nested InRun/InIteration spans parent the spans emitted inside them,
// take their IDs in the order they open, and leave the stack empty.
func TestInRunAndInIterationNest(t *testing.T) {
	m := NewDGPU()
	tr := trace.New()
	m.SetTracer(tr)
	m.InRun("app/model", func() {
		m.Launch(OnAccelerator, "setup", cost())
		for i := 0; i < 2; i++ {
			m.InIteration(i, func() {
				m.Launch(OnAccelerator, []string{"step0", "step1"}[i], cost())
			})
		}
	})
	m.Launch(OnHost, "after", cost())

	s := spansByName(t, tr)
	run, it0, it1 := s["app/model"], s["iter 0"], s["iter 1"]
	if run.Kind != trace.KindRun || it0.Kind != trace.KindIteration || it1.Kind != trace.KindIteration {
		t.Fatalf("kinds: run %s, iterations %s %s", run.Kind, it0.Kind, it1.Kind)
	}
	if !(run.ID < it0.ID && it0.ID < it1.ID) {
		t.Errorf("span IDs %d, %d, %d do not follow the order the spans opened", run.ID, it0.ID, it1.ID)
	}
	for child, parent := range map[string]uint64{
		"app/model": 0, "setup": run.ID, "iter 0": run.ID, "iter 1": run.ID,
		"step0": it0.ID, "step1": it1.ID, "after": 0,
	} {
		if got := s[child].Parent; got != parent {
			t.Errorf("%s parent = %d, want %d", child, got, parent)
		}
	}
	if want := s["setup"].DurNs + s["step0"].DurNs + s["step1"].DurNs; run.DurNs != want {
		t.Errorf("run span lasts %g ns, want the %g ns of the kernels inside it", run.DurNs, want)
	}
	if len(m.spanStack) != 0 {
		t.Errorf("span stack %v left open", m.spanStack)
	}
}

// A body that panics still emits its spans and pops them, so the next
// span parents at the top level.
func TestPanickingBodyClosesItsSpans(t *testing.T) {
	m := NewAPU()
	tr := trace.New()
	m.SetTracer(tr)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("body's panic did not propagate")
			}
		}()
		m.InRun("app/model", func() {
			m.InIteration(7, func() { panic("kernel failed") })
		})
	}()
	if len(m.spanStack) != 0 {
		t.Fatalf("span stack %v left open after a panic", m.spanStack)
	}
	m.Launch(OnHost, "after", cost())

	s := spansByName(t, tr)
	run, it := s["app/model"], s["iter 7"]
	if run.ID == 0 || it.ID == 0 {
		t.Fatalf("spans of the panicking run were not emitted: %v", tr.Spans())
	}
	if it.Parent != run.ID || s["after"].Parent != 0 {
		t.Errorf("parents: iteration %d (want %d), later kernel %d (want 0)", it.Parent, run.ID, s["after"].Parent)
	}
}

// On an untraced machine the closure form allocates nothing, so a
// Tape.Replay pays no more for its iteration spans than a nil check.
func TestUntracedSpansDoNotAllocate(t *testing.T) {
	m := NewAPU()
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		m.InRun("app/model", func() {
			for i := 0; i < 3; i++ {
				m.InIteration(i, func() { n++ })
			}
		})
	})
	if allocs != 0 {
		t.Errorf("untraced InRun/InIteration allocate %g times per run, want 0", allocs)
	}
	if n != 3*101 {
		t.Errorf("bodies ran %d times, want %d", n, 3*101)
	}
}
