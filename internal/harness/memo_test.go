package harness

import (
	"maps"
	"slices"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/xsbench"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/pcie"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// charOutcome is everything a cell observes of an app's characterization:
// the Table I miss rate, and timed runs whose kernel specs come from it
// (OpenCL takes miniFE's CSR-Adaptive specs, OpenACC its scalar ones).
type charOutcome struct {
	miss    float64
	results []appcore.Result
}

func observeCharacterization(w *workloads, app string, mk func() *sim.Machine) charOutcome {
	r, _ := w.runnerByName(app)
	o := charOutcome{miss: measuredMissRate(w, app, mk())}
	for _, model := range []modelapi.Name{modelapi.OpenCL, modelapi.OpenACC} {
		o.results = append(o.results, r.run(mk(), model))
	}
	return o
}

// A memoized characterization equals a fresh, uncached one for every app
// × machine × precision at smoke scale. Each combination runs in two
// runner cells that share the run memo, so under -race the two race for
// the same key and one of them reads the other's value.
func TestMemoizedCharacterizationMatchesFresh(t *testing.T) {
	type combo struct {
		app  string
		mk   func() *sim.Machine
		prec timing.Precision
	}
	var combos []combo
	for _, app := range AppNames {
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			for _, prec := range []timing.Precision{timing.Single, timing.Double} {
				combos = append(combos, combo{app, mk, prec})
			}
		}
	}
	ctx := WithMemo(bg)
	memoized := must(runner.Map(ctx, "memo", 2*len(combos), func(cx *runner.Ctx, i int) charOutcome {
		c := combos[i%len(combos)]
		return observeCharacterization(newWorkloads(cx.Context(), ScaleSmoke, c.prec), c.app, c.mk)
	}))
	if memoOf(ctx).Len() == 0 {
		t.Fatal("no characterization went through the run memo")
	}
	for i, c := range combos {
		fresh := observeCharacterization(newWorkloads(bg, ScaleSmoke, c.prec), c.app, c.mk)
		name := c.app + "/" + c.mk().Name() + "/" + c.prec.String()
		for _, got := range []charOutcome{memoized[i], memoized[i+len(combos)]} {
			if !sameOutcome(got, fresh) {
				t.Errorf("%s: memoized %+v, fresh %+v", name, got, fresh)
			}
		}
	}
}

// measuredMissRate is app's Table I miss rate on m. read-benchmark
// measures none: its streaming miss rate is fixed by construction.
func measuredMissRate(w *workloads, app string, m *sim.Machine) float64 {
	switch app {
	case "LULESH":
		return w.Lulesh().MeasuredTraits(m)
	case "CoMD":
		return w.Comd().MeasuredMissRate(m)
	case "XSBench":
		return w.Xsbench().MeasuredMissRate(m)
	case "miniFE":
		return w.Minife().MeasuredMissRate(m)
	}
	return 0
}

func sameOutcome(a, b charOutcome) bool {
	return a.miss == b.miss && slices.Equal(a.results, b.results)
}

// The memo key holds every device field a characterization reads: a
// machine that differs from another in one Geometry field alone never
// gets the other's numbers. The base machine's 16 KB LLC is small enough
// that every field changes some app's smoke-scale miss rate.
func TestMemoKeyCoversGeometry(t *testing.T) {
	machine := func(edit func(*device.Device)) func() *sim.Machine {
		return func() *sim.Machine {
			d := device.R9280X()
			d.L2SizeBytes = 16 << 10
			edit(d)
			return sim.NewCustom("dGPU (16 KB LLC)", device.HostCPU(), d, pcie.Default())
		}
	}
	base := machine(func(*device.Device) {})
	variants := []struct {
		field string
		edit  func(*device.Device)
	}{
		{"L2SizeBytes", func(d *device.Device) { d.L2SizeBytes = 32 << 10 }},
		{"L2Ways", func(d *device.Device) { d.L2Ways = 2 }},
		{"CacheLineBytes", func(d *device.Device) { d.CacheLineBytes = 128 }},
		{"ComputeUnits", func(d *device.Device) { d.ComputeUnits = 4 }},
	}
	for _, v := range variants {
		vary := machine(v.edit)
		matters := false
		for _, app := range AppNames {
			ctx := WithMemo(bg)
			before := observeCharacterization(newWorkloads(ctx, ScaleSmoke, timing.Double), app, base)
			got := observeCharacterization(newWorkloads(ctx, ScaleSmoke, timing.Double), app, vary)
			fresh := observeCharacterization(newWorkloads(bg, ScaleSmoke, timing.Double), app, vary)
			if !sameOutcome(got, fresh) {
				t.Errorf("%s, %s changed: memoized %+v, fresh %+v", app, v.field, got, fresh)
			}
			matters = matters || before.miss != fresh.miss
		}
		if !matters {
			t.Errorf("%s: no app's miss rate depends on it here, so this case checks nothing", v.field)
		}
	}
}

// runObservation is everything a cell observes of one app run: the
// Result (checksum included), every traced span in order and the full
// counter snapshot, whose per-launch work comes from the functional pass.
type runObservation struct {
	res      appcore.Result
	spans    []trace.Span
	counters map[string]float64
}

func observeRun(w *workloads, app string, model modelapi.Name, mk func() *sim.Machine) runObservation {
	r, _ := w.runnerByName(app)
	return observe(mk(), func(m *sim.Machine) appcore.Result { return r.run(m, model) })
}

// observe traces run on m.
func observe(m *sim.Machine, run func(*sim.Machine) appcore.Result) runObservation {
	tr := trace.New()
	m.SetTracer(tr)
	res := run(m)
	return runObservation{res, tr.Spans(), tr.Metrics().Snapshot()}
}

// A memoized cell prices exactly the functional pass a fresh, memo-less
// cell executes: for every app × model × machine × precision at smoke
// scale, every span, every counter, the Result and its checksum are
// identical. Each combination runs in two runner cells that share the
// run memo, so under -race they race for the same outcome.
func TestMemoizedRunMatchesFresh(t *testing.T) {
	type combo struct {
		app   string
		model modelapi.Name
		mk    func() *sim.Machine
		prec  timing.Precision
	}
	var combos []combo
	for _, app := range AppNames {
		for _, model := range []modelapi.Name{modelapi.OpenMP, modelapi.OpenCL, modelapi.CppAMP, modelapi.OpenACC} {
			for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
				for _, prec := range []timing.Precision{timing.Single, timing.Double} {
					combos = append(combos, combo{app, model, mk, prec})
				}
			}
		}
	}
	ctx := WithMemo(bg)
	memoized := must(runner.Map(ctx, "memo", 2*len(combos), func(cx *runner.Ctx, i int) runObservation {
		c := combos[i%len(combos)]
		return observeRun(newWorkloads(cx.Context(), ScaleSmoke, c.prec), c.app, c.model, c.mk)
	}))
	for i, c := range combos {
		fresh := observeRun(newWorkloads(bg, ScaleSmoke, c.prec), c.app, c.model, c.mk)
		name := c.app + "/" + string(c.model) + "/" + c.mk().Name() + "/" + c.prec.String()
		if fresh.counters[trace.CtrKernelLaunches] == 0 {
			t.Fatalf("%s: no launches traced", name)
		}
		for _, got := range []runObservation{memoized[i], memoized[i+len(combos)]} {
			if got.res != fresh.res {
				t.Errorf("%s: memoized result %+v, fresh %+v", name, got.res, fresh.res)
			}
			if !slices.Equal(got.spans, fresh.spans) {
				t.Errorf("%s: memoized run's spans differ from a fresh run's", name)
			}
			if !maps.Equal(got.counters, fresh.counters) {
				t.Errorf("%s: memoized counters %v, fresh %v", name, got.counters, fresh.counters)
			}
		}
	}
}

// The runs outside the model × machine grid replay the same Tapes in
// views the grid does not price: CoMD's flat OpenCL force, the HC model,
// XSBench's nuclide grid and miniFE's OpenACC without a data region. Each
// memoized run, priced from a pass that any precision or variant may
// have recorded, matches a fresh, memo-less run in every span, counter,
// Result and checksum. Each combination runs in two runner cells that
// share the memo with the grid runs of both precisions.
func TestMemoizedVariantRunsMatchFresh(t *testing.T) {
	nuclideGrid := func(w *workloads) *xsbench.Problem {
		cfg := xsbenchConfig(w.scale)
		cfg.Grid = xsbench.NuclideGridOnly
		return &xsbench.Problem{Cfg: cfg, Precision: w.prec, Memo: w.memo}
	}
	variants := []struct {
		name string
		run  func(w *workloads, m *sim.Machine) appcore.Result
	}{
		{"CoMD/OpenCLFlat", func(w *workloads, m *sim.Machine) appcore.Result { return w.Comd().RunOpenCLFlat(m) }},
		{"LULESH/HC", func(w *workloads, m *sim.Machine) appcore.Result { return w.Lulesh().RunHC(m) }},
		{"XSBench/HC", func(w *workloads, m *sim.Machine) appcore.Result { return w.Xsbench().RunHC(m) }},
		{"XSBench/nuclide-grid/OpenCL", func(w *workloads, m *sim.Machine) appcore.Result { return nuclideGrid(w).RunOpenCL(m) }},
		{"XSBench/nuclide-grid/OpenACC", func(w *workloads, m *sim.Machine) appcore.Result { return nuclideGrid(w).RunOpenACC(m) }},
		{"miniFE/OpenACCConservative", func(w *workloads, m *sim.Machine) appcore.Result {
			return w.Minife().RunOpenACCConservative(m).Result
		}},
	}
	type combo struct {
		variant int
		mk      func() *sim.Machine
		prec    timing.Precision
	}
	var combos []combo
	for v := range variants {
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			for _, prec := range []timing.Precision{timing.Single, timing.Double} {
				combos = append(combos, combo{v, mk, prec})
			}
		}
	}
	ctx := WithMemo(bg)
	must(speedups(ctx, ScaleSmoke, sim.NewDGPU, timing.Single, timing.Double))
	memoized := must(runner.Map(ctx, "memo", 2*len(combos), func(cx *runner.Ctx, i int) runObservation {
		c := combos[i%len(combos)]
		w := newWorkloads(cx.Context(), ScaleSmoke, c.prec)
		return observe(c.mk(), func(m *sim.Machine) appcore.Result { return variants[c.variant].run(w, m) })
	}))
	for i, c := range combos {
		w := newWorkloads(bg, ScaleSmoke, c.prec)
		fresh := observe(c.mk(), func(m *sim.Machine) appcore.Result { return variants[c.variant].run(w, m) })
		name := variants[c.variant].name + "/" + c.mk().Name() + "/" + c.prec.String()
		if fresh.counters[trace.CtrKernelLaunches] == 0 {
			t.Fatalf("%s: no launches traced", name)
		}
		for _, got := range []runObservation{memoized[i], memoized[i+len(combos)]} {
			if got.res != fresh.res {
				t.Errorf("%s: memoized result %+v, fresh %+v", name, got.res, fresh.res)
			}
			if !slices.Equal(got.spans, fresh.spans) {
				t.Errorf("%s: memoized run's spans differ from a fresh run's", name)
			}
			if !maps.Equal(got.counters, fresh.counters) {
				t.Errorf("%s: memoized counters %v, fresh %v", name, got.counters, fresh.counters)
			}
		}
	}
}

// The fig9 sweep executes one functional pass per (app, config): its two
// precisions and every model's kernel variant share it. A run memo holds
// one entry per characterization (per precision, since the element size
// changes the address trace) and one per functional pass, so a sweep
// over both precisions holds exactly one entry per app fewer than the
// single-precision sweeps on fresh memos together.
func TestFig9RunsOnePassPerAppConfig(t *testing.T) {
	entries := func(precs ...timing.Precision) int {
		ctx := WithMemo(bg)
		must(speedups(ctx, ScaleSmoke, sim.NewDGPU, precs...))
		return memoOf(ctx).Len()
	}
	both := entries(timing.Single, timing.Double)
	apart := entries(timing.Single) + entries(timing.Double)
	if apart-both != len(AppNames) {
		t.Errorf("SP+DP sweep holds %d memo entries, SP and DP sweeps %d together: the precisions share %d functional passes, want one per app (%d)",
			both, apart, apart-both, len(AppNames))
	}
}

func TestMemoOf(t *testing.T) {
	if memoOf(bg) != nil {
		t.Error("a bare context carries a memo")
	}
	ctx := WithMemo(bg)
	if memoOf(ctx) == nil || memoOf(ctx) != memoOf(WithSeed(ctx, 3)) {
		t.Error("WithMemo's memo does not survive a derived context")
	}
	if memoOf(WithMemo(ctx)) == memoOf(ctx) {
		t.Error("each WithMemo must install a fresh memo")
	}
}
