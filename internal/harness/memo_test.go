package harness

import (
	"slices"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/pcie"
	"hetbench/internal/sim/timing"
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
	o := charOutcome{miss: r.missRate(mk())}
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
// Result (checksum included) and the cost of every launch in order,
// whose per-item counters come from the functional pass.
type runObservation struct {
	res   appcore.Result
	costs []sim.LoggedCost
}

func observeRun(w *workloads, app string, model modelapi.Name, mk func() *sim.Machine) runObservation {
	r, _ := w.runnerByName(app)
	m := mk()
	m.EnableCostLog()
	res := r.run(m, model)
	return runObservation{res, m.CostLog()}
}

// A memoized cell prices exactly the functional pass a fresh, memo-less
// cell executes: for every app × model × machine × precision at smoke
// scale, the per-launch costs, the Result and its checksum are
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
		if len(fresh.costs) == 0 {
			t.Fatalf("%s: no launches logged", name)
		}
		for _, got := range []runObservation{memoized[i], memoized[i+len(combos)]} {
			if got.res != fresh.res {
				t.Errorf("%s: memoized result %+v, fresh %+v", name, got.res, fresh.res)
			}
			if !slices.Equal(got.costs, fresh.costs) {
				t.Errorf("%s: memoized run's launch costs differ from a fresh run's", name)
			}
		}
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
