package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hetbench/internal/fault"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/trace"
	"hetbench/internal/workload"
)

// TestDagSweepShape pins the sweep's structure: 2 machines × 4 specs ×
// 3 models × 5 schedules, every cell carrying its serialized baseline.
func TestDagSweepShape(t *testing.T) {
	cells := must(DagData(bg, ScaleSmoke))
	if want := 2 * 4 * 3 * 5; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.BaselineNs <= 0 {
			t.Errorf("%s/%s/%s/%s has no baseline", c.Machine, c.Spec, c.Model, c.Schedule)
		}
		if c.Result.Kernels == 0 || c.Result.HostKernels+c.Result.AccelKernels != c.Result.Kernels {
			t.Errorf("%s/%s/%s/%s kernel accounting off: %+v", c.Machine, c.Spec, c.Model, c.Schedule, c.Result)
		}
	}
}

// TestDagBeatsSerialSomewhere locks the acceptance criterion into the
// test suite: at least one fault-free DAG cell beats its serialized
// baseline, and the dyn+loss rows actually exercise rebooking.
func TestDagBeatsSerialSomewhere(t *testing.T) {
	cells := must(DagData(bg, ScaleSmoke))
	wins, rebooked := 0, 0
	for _, c := range cells {
		switch c.Schedule {
		case "serial":
		case "dyn+loss":
			rebooked += c.Result.Rebooked
		default:
			if c.Speedup() > 1.001 {
				wins++
			}
		}
	}
	if wins == 0 {
		t.Error("no DAG schedule beat serialized execution in any cell")
	}
	if rebooked == 0 {
		t.Error("no kernel was ever rebooked on the dyn+loss rows")
	}
}

// TestDagRunDeterministic renders the experiment twice and demands
// byte-identical output (the double-run diff CI performs, in-process).
func TestDagRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := RunDag(bg, ScaleSmoke, &a); err != nil {
		t.Fatal(err)
	}
	if err := RunDag(bg, ScaleSmoke, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two identical-seed runs rendered different output")
	}
	if !strings.Contains(a.String(), "Best DAG win over serialized execution") {
		t.Error("output is missing the acceptance summary line")
	}
}

// A serial DAG run under device loss and CRC corruption reaches the
// injector twice over: the loss window rebooks kernels host-ward, and
// queued staging resends corrupted copies. A seeded sweep of such runs,
// captured, reproduces bit for bit at one worker and at eight.
func TestSerialDagFaultsReproduceAcrossJobs(t *testing.T) {
	progs := must(dagPrograms())
	type cell struct {
		res     workload.Result
		rs      sim.ResilienceStats
		faultNs float64
	}
	sweep := func(jobs int) ([]cell, map[string]float64) {
		old := runner.Jobs()
		runner.SetJobs(jobs)
		defer runner.SetJobs(old)
		capture := trace.New()
		ctx := runner.WithScope(bg, &runner.Scope{Capture: capture})
		models := modelapi.All()
		cells := must(runner.Map(ctx, "serial-faults", len(progs)*len(models), func(cx *runner.Ctx, i int) cell {
			m := cx.Machine(sim.NewDGPU)
			inj := fault.New(fault.Config{
				Seed:                cellSeed(SeedOf(cx.Context()), i, 0),
				DeviceLossRate:      0.5,
				DeviceLossNs:        1e5,
				TransferCorruptRate: 0.3,
			})
			for inj.LostUntilNs() == 0 {
				inj.Launch(0)
			}
			m.SetFaultInjector(inj, fault.DefaultPolicy())
			res := workload.Execute(m, progs[i/len(models)], workload.Options{Model: models[i%len(models)], Iterations: 2})
			return cell{res, m.Resilience(), m.FaultNs()}
		}))
		return cells, capture.Metrics().Snapshot()
	}
	one, oneCtrs := sweep(1)
	eight, eightCtrs := sweep(8)
	if !reflect.DeepEqual(one, eight) || !reflect.DeepEqual(oneCtrs, eightCtrs) {
		t.Errorf("serial fault sweep differs between one and eight workers:\n%+v\n%+v", one, eight)
	}
	rebooked, resent := 0, 0
	for _, c := range one {
		rebooked += c.res.Rebooked
		resent += c.rs.Retransmits
	}
	if rebooked == 0 || resent == 0 {
		t.Errorf("serial runs rebooked %d kernels and resent %d copies; the injector must reach both", rebooked, resent)
	}
}
