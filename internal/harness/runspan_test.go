package harness

import (
	"io"
	"strings"
	"testing"

	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/minife"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/trace"
)

// Every app run of every experiment takes appcore.Run's one path: under a
// capture, it opens exactly one run span, named <App>/<key>, and every
// kernel and transfer span nests inside one. An experiment listed in
// noAppRun shows no app run to the capture, for the reason given, and must
// not open an app's run span.
func TestEveryAppRunHasOneRunSpan(t *testing.T) {
	noAppRun := map[string]string{
		"table2":  "prints the device catalog",
		"table3":  "prints the compiler profiles",
		"table4":  "counts source lines",
		"fig11":   "prints the feature matrix",
		"scaling": "reprices LULESH's one-step pass per rank on machines of its own, no app run",
		"profile": "traces its runs on tracers of its own (TestTraceData checks their run spans)",
		"trace":   "traces its runs on tracers of its own (TestTraceData checks their run spans)",
		"dag":     "runs workload specs, whose run spans are named <spec>/<model>",
		"fleet":   "prices jobs analytically on fleet nodes, no app run",
	}
	keys := map[modelapi.Name]bool{modelapi.OpenMP: true, modelapi.HC: true, comd.OpenCLFlat: true, minife.OpenACCPerRegion: true}
	for _, model := range modelapi.All() {
		keys[model] = true
	}
	isApp := map[string]bool{}
	for _, app := range AppNames {
		isApp[app] = true
	}
	for _, e := range experiments() {
		sc := &runner.Scope{Capture: trace.New()}
		if err := e.Run(runner.WithScope(WithMemo(bg, nil), sc), ScaleSmoke, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		spans := sc.Capture.Spans()
		byID := make(map[uint64]trace.Span, len(spans))
		for _, s := range spans {
			byID[s.ID] = s
		}
		inRun := func(s trace.Span) bool {
			for p := s.Parent; p != 0; p = byID[p].Parent {
				if byID[p].Kind == trace.KindRun {
					return true
				}
			}
			return false
		}
		_, exempt := noAppRun[e.ID]
		runs, orphans, first := 0, 0, ""
		for _, s := range spans {
			switch s.Kind {
			case trace.KindRun:
				runs++
				app, key, _ := strings.Cut(s.Name, "/")
				if exempt && isApp[app] {
					t.Errorf("%s: run span %q, but the experiment is listed as running no app", e.ID, s.Name)
				}
				if !exempt && (!isApp[app] || !keys[modelapi.Name(key)]) {
					t.Errorf("%s: run span %q is not named <App>/<key>", e.ID, s.Name)
				}
				if inRun(s) {
					t.Errorf("%s: run span %q opens inside another run", e.ID, s.Name)
				}
			case trace.KindKernel, trace.KindTransfer:
				if !inRun(s) {
					if orphans == 0 {
						first = s.Name
					}
					orphans++
				}
			}
		}
		if orphans > 0 {
			t.Errorf("%s: %d kernel and transfer spans have no run ancestor, the first %q", e.ID, orphans, first)
		}
		if !exempt && runs == 0 {
			t.Errorf("%s: no run span captured", e.ID)
		}
	}
}

// Fleet nodes price jobs analytically and emit no span, so a fleet run
// under a capture registers no machine with it, yet books the fleet's
// counters there.
func TestFleetCaptureHoldsNoIdleMachine(t *testing.T) {
	sc := &runner.Scope{Capture: trace.New()}
	if err := Registry()["fleet"].Run(runner.WithScope(bg, sc), ScaleSmoke, io.Discard); err != nil {
		t.Fatal(err)
	}
	if procs := sc.Capture.Processes(); len(procs) != 0 {
		t.Errorf("fleet capture registers %d machines that emit no span, want none", len(procs))
	}
	if sc.Capture.Metrics().Get(trace.CtrFleetCompleted) == 0 {
		t.Error("fleet capture books no completed job")
	}
}
