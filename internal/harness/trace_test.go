package harness

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/readmem"
	"hetbench/internal/apps/xsbench"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// The counter registry must agree with the Machine's legacy accumulators
// across a Figure 8-style sweep (every app × GPU model on the APU at
// small scale): the two are independent tallies of the same virtual clock.
// Every run takes appcore.Run's one path: a single run span named
// App/key from virtual time 0 and a Result naming the app, model,
// machine, precision and kernel count. Besides the GPU models, LULESH and
// XSBench run HC, and CoMD's flat OpenCL and miniFE's per-region OpenACC
// variants run under keys of their own with the model's Result; every
// key's checksum is the OpenCL run's. A model
// an app has no port for panics with the app's "no implementation"
// message.
func TestRegistryMatchesMachineCounters(t *testing.T) {
	kernels := map[string]int{
		readmem.AppName: 1, lulesh.AppName: int(lulesh.NumKernels), comd.AppName: 3, xsbench.AppName: 1, minife.AppName: 3,
	}
	// extra maps each app's run keys beyond modelapi.All() to the model
	// its Result names.
	extra := map[string]map[modelapi.Name]modelapi.Name{
		lulesh.AppName:  {modelapi.HC: modelapi.HC},
		xsbench.AppName: {modelapi.HC: modelapi.HC},
		comd.AppName:    {comd.OpenCLFlat: modelapi.OpenCL},
		minife.AppName:  {minife.OpenACCPerRegion: modelapi.OpenACC},
	}
	cfgs := scaleConfigs(ScaleSmall, timing.Double)
	for _, app := range AppNames {
		var checksum float64 // OpenCL's, the first key
		keys := modelapi.All()
		for key := range extra[app] {
			keys = append(keys, key)
		}
		for _, key := range keys {
			model, ok := extra[app][key]
			if !ok {
				model = key
			}
			m := sim.NewAPU()
			tr := trace.New()
			m.SetTracer(tr)
			res := runApp(nil, cfgs, app, m, key)

			reg := tr.Metrics()
			if got, want := reg.Get(trace.CtrKernelNs), m.KernelNs(); !approxEq(got, want) {
				t.Errorf("%s/%s: kernel.ns = %g, machine says %g", app, key, got, want)
			}
			if got, want := reg.Get(trace.CtrTransferNs), m.TransferNs(); !approxEq(got, want) {
				t.Errorf("%s/%s: transfer.ns = %g, machine says %g", app, key, got, want)
			}
			if m.KernelNs() > 0 && reg.Get(trace.CtrKernelLaunches) == 0 {
				t.Errorf("%s/%s: kernel time with no recorded launches", app, key)
			}

			var runs []trace.Span
			for _, s := range tr.Spans() {
				if s.Kind == trace.KindRun {
					runs = append(runs, s)
				}
			}
			if name := app + "/" + string(key); len(runs) != 1 || runs[0].Name != name || runs[0].StartNs != 0 {
				t.Errorf("%s/%s: run spans %+v, want one named %q from 0", app, key, runs, name)
			}
			got := appcore.Result{App: res.App, Model: res.Model, Machine: res.Machine, Precision: res.Precision, Kernels: res.Kernels}
			want := appcore.Result{App: app, Model: model, Machine: m.Name(), Precision: timing.Double, Kernels: kernels[app]}
			if got != want {
				t.Errorf("%s/%s: result names %+v, want %+v", app, key, got, want)
			}
			if key == modelapi.OpenCL {
				checksum = res.Checksum
			} else if res.Checksum != checksum {
				t.Errorf("%s/%s: checksum %g, OpenCL's %g", app, key, res.Checksum, checksum)
			}
		}
		if _, ok := extra[app][modelapi.HC]; ok {
			continue
		}
		func() {
			want := app + ": no implementation for " + string(modelapi.HC)
			defer func() {
				if got := recover(); got != want {
					t.Errorf("%s under HC panicked with %v, want %q", app, got, want)
				}
			}()
			runApp(nil, cfgs, app, sim.NewAPU(), modelapi.HC)
		}()
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
	ctx := WithMemo(bg, nil)
	if err := RunProfile(ctx, ScaleSmoke, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, model := range modelapi.All() {
		appcore.Memoize(memoOf(ctx), modelTraceKey{ScaleSmoke, model}, func() ModelTrace {
			t.Errorf("RunProfile left no traced %s run in the memo", model)
			return ModelTrace{Model: model}
		})
	}

	stub := WithMemo(bg, nil)
	for _, model := range modelapi.All() {
		appcore.Memoize(memoOf(stub), modelTraceKey{ScaleSmoke, model}, func() ModelTrace {
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
