package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench"
	"hetbench/internal/fault"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/workload"
)

// dagSchedules is the row set of the DAG sweep: the serialized
// single-device baseline every speedup is measured against, the three
// DAG-planner policies, and the dynamic policy re-run with the
// accelerator lost at t=0 (so the rebooking path shows up in the output).
func dagSchedules() []struct {
	Label  string
	Policy sched.Policy
	Serial bool
	Loss   bool
} {
	return []struct {
		Label  string
		Policy sched.Policy
		Serial bool
		Loss   bool
	}{
		{"serial", 0, true, false},
		{"static", sched.Static, false, false},
		{"dynamic", sched.Dynamic, false, false},
		{"hguided", sched.HGuided, false, false},
		{"dyn+loss", sched.Dynamic, false, true},
	}
}

// DagCell is one (machine, spec, model, schedule) cell of the DAG sweep.
type DagCell struct {
	Machine  string
	Spec     string
	Model    modelapi.Name
	Schedule string

	Result workload.Result
	// BaselineNs is the serialized run's elapsed time for the same
	// (machine, spec, model), the denominator of Speedup.
	BaselineNs float64
}

// Speedup is the cell's gain over the serialized single-device baseline.
func (c DagCell) Speedup() float64 {
	if c.Result.ElapsedNs <= 0 {
		return 0
	}
	return c.BaselineNs / c.Result.ElapsedNs
}

// dagIterations maps the run scale to the outer-loop count: smoke runs
// each DAG once, small twice, and the full scales honor each spec's own
// iteration count.
func dagIterations(scale Scale) int {
	switch scale {
	case ScaleSmoke:
		return 1
	case ScaleSmall:
		return 2
	default:
		return 0 // the spec's declared count
	}
}

// dagPrograms loads and compiles the shipped specs once per cell worker.
func dagPrograms() ([]*workload.Program, error) {
	var progs []*workload.Program
	for _, path := range hetbench.SpecPaths() {
		data, err := hetbench.SpecFS.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		spec, err := workload.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", path, err)
		}
		prog, err := spec.Compile()
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", path, err)
		}
		progs = append(progs, prog)
	}
	return progs, nil
}

// DagData sweeps the four shipped workload specs across the three GPU
// models and the DAG schedules on both machines. The planner policies
// draw no randomness; the only seeded element is the dyn+loss row's fault
// stream, keyed off the context's seed with per-cell strides — so equal
// seeds give bit-identical sweeps at any worker count.
func DagData(ctx context.Context, scale Scale) ([]DagCell, error) {
	machines := []struct {
		name string
		mk   func() *sim.Machine
	}{
		{"APU", sim.NewAPU},
		{"dGPU", sim.NewDGPU},
	}
	// One runner cell per (machine, spec), machine-major: the serialized
	// baseline is every schedule's denominator, so the model × schedule
	// loops stay inside the cell that computed it.
	progs, err := dagPrograms()
	if err != nil {
		return nil, err
	}
	type combo struct{ mach, spec int }
	var combos []combo
	for mi := range machines {
		for si := range progs {
			combos = append(combos, combo{mi, si})
		}
	}
	iters := dagIterations(scale)
	groups, err := runner.Map(ctx, "dag", len(combos), func(cx *runner.Ctx, i int) []DagCell {
		mach, prog := machines[combos[i].mach], progs[combos[i].spec]
		var cells []DagCell
		for _, model := range modelapi.All() {
			var baselineNs float64
			for _, sc := range dagSchedules() {
				cell := DagCell{
					Machine: mach.name, Spec: prog.Spec.Name,
					Model: model, Schedule: sc.Label,
				}
				m := cx.Machine(mach.mk)
				opt := workload.Options{Model: model, Iterations: iters}
				if !sc.Serial {
					opt.Planner = sched.NewDag(sc.Policy)
				}
				if sc.Loss {
					// Lose the accelerator at t=0 for 40% of the baseline
					// run: kernels issued inside the window rebook on the
					// host, later ones return to the accelerator.
					inj := fault.New(fault.Config{
						Seed:           cellSeed(SeedOf(cx.Context()), combos[i].mach, combos[i].spec),
						DeviceLossRate: 0.5,
						DeviceLossNs:   0.4 * baselineNs,
					})
					for inj.LostUntilNs() == 0 {
						inj.Launch(0)
					}
					m.SetFaultInjector(inj, fault.DefaultPolicy())
				}
				cell.Result = workload.Execute(m, prog, opt)
				if sc.Serial {
					baselineNs = cell.Result.ElapsedNs
				}
				cell.BaselineNs = baselineNs
				cells = append(cells, cell)
			}
		}
		return cells
	})
	if err != nil {
		return nil, err
	}
	var cells []DagCell
	for _, g := range groups {
		cells = append(cells, g...)
	}
	return cells, nil
}

// RunDag is the dag experiment: one table per machine sweeping spec ×
// model × schedule, with the data each model's staging strategy moved and
// the speedup over serialized single-device execution.
func RunDag(ctx context.Context, scale Scale, w io.Writer) error {
	cells, err := DagData(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Declarative multi-kernel workloads (specs/*.json) under the DAG-aware scheduler\n")
	fmt.Fprintf(w, "(seed %d; the planners are deterministic, so equal seeds give bit-identical\n", SeedOf(ctx))
	fmt.Fprintln(w, "sweeps). serial runs every kernel on one device in topo order; the DAG policies")
	fmt.Fprintln(w, "overlap independent kernels across both devices, staging priced per edge by each")
	fmt.Fprintln(w, "model's transfer strategy. dyn+loss loses the accelerator at t=0 (Reb = kernels")
	fmt.Fprintln(w, "rebooked host-ward); speedup is vs serial for the same spec and model.")
	fmt.Fprintln(w)
	type key struct {
		mach, spec string
		model      modelapi.Name
	}
	for _, mach := range []string{"APU", "dGPU"} {
		t := report.NewTable("DAG scheduling on the "+mach,
			"Spec", "Model", "Schedule", "Elapsed ms", "Moved MB", "Host k", "Accel k", "Reb", "Speedup")
		for _, c := range cells {
			if c.Machine != mach {
				continue
			}
			t.AddRowf(c.Spec, string(c.Model), c.Schedule,
				fmt.Sprintf("%.3f", c.Result.ElapsedNs/1e6),
				fmt.Sprintf("%.1f", float64(c.Result.MovedBytes)/1e6),
				c.Result.HostKernels, c.Result.AccelKernels, c.Result.Rebooked,
				fmt.Sprintf("%.2f×", c.Speedup()))
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	// The acceptance line: the best fault-free DAG win over serial.
	best := DagCell{}
	for _, c := range cells {
		if c.Schedule == "serial" || c.Schedule == "dyn+loss" {
			continue
		}
		if best.Result.ElapsedNs == 0 || c.Speedup() > best.Speedup() {
			best = c
		}
	}
	fmt.Fprintf(w, "Best DAG win over serialized execution: %s/%s under %s (%s): %.2f×.\n",
		best.Spec, best.Machine, best.Model, best.Schedule, best.Speedup())
	fmt.Fprintln(w, "Chains (mlp) cannot beat serial — there is nothing to overlap — while forked")
	fmt.Fprintln(w, "pipelines (sobel, 3mm) gain whenever the slower device's kernel time hides")
	fmt.Fprintln(w, "inside the faster device's busy window.")
	return nil
}
