package harness

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// The counter registry must agree with the Machine's legacy accumulators
// across a Figure 8-style sweep (every app × GPU model on the APU at
// small scale): the two are independent tallies of the same virtual clock.
func TestRegistryMatchesMachineCounters(t *testing.T) {
	w := newWorkloads(context.Background(), ScaleSmall, timing.Double)
	for _, r := range w.runners() {
		for _, model := range modelapi.All() {
			m := sim.NewAPU()
			tr := trace.New()
			m.SetTracer(tr)
			r.run(m, model)

			reg := tr.Metrics()
			if got, want := reg.Get(trace.CtrKernelNs), m.KernelNs(); !approxEq(got, want) {
				t.Errorf("%s/%s: kernel.ns = %g, machine says %g", r.name, model, got, want)
			}
			if got, want := reg.Get(trace.CtrTransferNs), m.TransferNs(); !approxEq(got, want) {
				t.Errorf("%s/%s: transfer.ns = %g, machine says %g", r.name, model, got, want)
			}
			if m.KernelNs() > 0 && reg.Get(trace.CtrKernelLaunches) == 0 {
				t.Errorf("%s/%s: kernel time with no recorded launches", r.name, model)
			}
		}
	}
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// The trace experiment must surface the AMP CPU-fallback kernel and its
// induced PCIe round trips in the rendered timelines.
func TestRunTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTrace(bg, ScaleSmall, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"OpenCL", "C++ AMP", "OpenACC", // all three models rendered
		"(cpu-fallback)",  // the fallback kernel is visible
		"accelerator",     // timeline tracks
		"pcie",            //
		"run counters",    // registry table
		"kernel launches", //
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

// modelTrace gives each model its own tracer with a full span hierarchy:
// run → iteration → kernel/transfer.
func TestTraceData(t *testing.T) {
	for _, model := range modelapi.All() {
		mt := modelTrace(bg, ScaleSmall, model)
		spans := mt.Spans
		kinds := map[trace.Kind]int{}
		for _, s := range spans {
			kinds[s.Kind]++
		}
		if kinds[trace.KindRun] != 1 {
			t.Errorf("%s: run spans = %d, want 1", mt.Model, kinds[trace.KindRun])
		}
		if kinds[trace.KindIteration] == 0 || kinds[trace.KindKernel] == 0 {
			t.Errorf("%s: span kinds %v lack iterations/kernels", mt.Model, kinds)
		}
		// Iteration spans must parent into the run span.
		var runID uint64
		for _, s := range spans {
			if s.Kind == trace.KindRun {
				runID = s.ID
			}
		}
		for _, s := range spans {
			if s.Kind == trace.KindIteration && s.Parent != runID {
				t.Errorf("%s: iteration %q parent = %d, want run %d", mt.Model, s.Name, s.Parent, runID)
				break
			}
		}
	}
}

// The profile and trace experiments share one traced LULESH run per
// model through the run memo: RunProfile leaves the three runs there, and
// RunTrace renders what the memo holds instead of running again, so
// `-exp all` executes three traced runs, not six.
func TestProfileAndTraceShareTracedRuns(t *testing.T) {
	ctx := WithMemo(bg)
	if err := RunProfile(ctx, ScaleSmoke, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, model := range modelapi.All() {
		memoOf(ctx).Get(modelTraceKey{ScaleSmoke, model}, func() any {
			t.Errorf("RunProfile left no traced %s run in the memo", model)
			return ModelTrace{Model: model}
		})
	}

	stub := WithMemo(bg)
	for _, model := range modelapi.All() {
		memoOf(stub).Get(modelTraceKey{ScaleSmoke, model}, func() any {
			return ModelTrace{Model: model, Result: appcore.Result{ElapsedNs: 42e6}}
		})
	}
	var buf bytes.Buffer
	if err := RunTrace(stub, ScaleSmoke, &buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), ": 42.000 ms elapsed"); got != len(modelapi.All()) {
		t.Errorf("RunTrace rendered the memoized run for %d of %d models:\n%s", got, len(modelapi.All()), buf.String())
	}
}
