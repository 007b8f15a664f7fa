package harness

import (
	"bytes"
	"context"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/fault"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// Acceptance: under the injected fault-rate sweep, every model's run
// completes with the fault-free golden checksum — recovery by retry,
// watchdog, fallback or redo, never a wrong number.
func TestFaultsSweepCompletesWithGoldenChecksums(t *testing.T) {
	cells := must(FaultsData(bg, ScaleSmoke))
	if want := 3 * len(FaultRates); len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	injectedAtTop := int64(0)
	for _, c := range cells {
		if !c.Correct {
			t.Errorf("%s at rate %.2f: final checksum did not match golden", c.Model, c.Rate)
		}
		if c.Rate == 0 {
			if c.Stats.Retries != 0 || c.Injected != 0 || c.Result.FaultNs != 0 {
				t.Errorf("%s control cell saw faults: %+v", c.Model, c.Stats)
			}
			if c.OverheadPct() != 0 {
				t.Errorf("%s control cell has %.1f%% overhead", c.Model, c.OverheadPct())
			}
		} else {
			if c.TotalNs < c.CleanNs {
				t.Errorf("%s at rate %.2f: faulty run faster than clean (%.0f < %.0f ns)",
					c.Model, c.Rate, c.TotalNs, c.CleanNs)
			}
		}
		if c.Rate == FaultRates[len(FaultRates)-1] {
			injectedAtTop += c.Injected
		}
	}
	if injectedAtTop == 0 {
		t.Error("top fault rate injected nothing across all models")
	}
}

// Acceptance: the sweep is bit-reproducible under a fixed seed and
// diverges under a different one.
func TestFaultsReproducibleUnderSeed(t *testing.T) {
	render := func(s int64) string {
		var buf bytes.Buffer
		if err := RunFaults(WithSeed(bg, s), ScaleSmoke, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(1), render(1)
	if a != b {
		t.Fatal("two runs with seed 1 produced different output")
	}
	if c := render(2); c == a {
		t.Fatal("seed 2 reproduced seed 1's output exactly")
	}
}

// Silent corruption is invisible to launch-level recovery; runResilient
// catches it against the golden checksum and redoes the run, detaching the
// injector as a last resort — completion with correct numerics is
// guaranteed.
func TestRunResilientRedoesSilentCorruption(t *testing.T) {
	w := newWorkloads(context.Background(), ScaleSmoke, timing.Double)
	golden := w.Readmem().RunOpenCL(sim.NewDGPU()).Checksum
	pol := fault.DefaultPolicy()

	sawRedo := false
	for s := int64(1); s <= 8; s++ {
		m := sim.NewDGPU()
		m.SetFaultInjector(fault.New(fault.Config{Seed: s, BitFlipRate: 0.75}), pol)
		res, total, redos, correct := runResilient(m, pol, golden,
			func() appcore.Result { return w.Readmem().RunOpenCL(m) })
		if !correct || res.Checksum != golden {
			t.Fatalf("seed %d: runResilient returned wrong checksum %g, want %g", s, res.Checksum, golden)
		}
		if total < res.ElapsedNs {
			t.Fatalf("seed %d: total %g ns less than final attempt %g ns", s, total, res.ElapsedNs)
		}
		if redos > 0 {
			sawRedo = true
		}
	}
	if !sawRedo {
		t.Error("no seed in 1..8 forced a redo at a 0.75 bit-flip rate")
	}
}

// A machine with a fault injector bypasses the run memo: the run
// executes functionally, so a silent bit flip lands in the real output
// and the checksum can diverge from the clean one before any redo. A
// memoized replay would always report the clean checksum.
func TestFaultInjectedRunsBypassTheMemo(t *testing.T) {
	w := newWorkloads(WithMemo(bg), ScaleSmoke, timing.Double)
	clean := w.Readmem().RunOpenCL(sim.NewDGPU()).Checksum
	diverged := false
	for s := int64(1); s <= 8 && !diverged; s++ {
		m := sim.NewDGPU()
		m.SetFaultInjector(fault.New(fault.Config{Seed: s, BitFlipRate: 0.75}), fault.DefaultPolicy())
		diverged = w.Readmem().RunOpenCL(m).Checksum != clean
	}
	if !diverged {
		t.Error("no seed in 1..8 diverged from the clean checksum at a 0.75 bit-flip rate")
	}
	if got := w.Readmem().RunOpenCL(sim.NewDGPU()).Checksum; got != clean {
		t.Errorf("clean run after faulty ones: checksum %g, want %g", got, clean)
	}
}

// The smoke scale builds complete (toy-sized) workloads on demand.
func TestSmokeWorkloads(t *testing.T) {
	w := newWorkloads(context.Background(), ScaleSmoke, timing.Double)
	if w.Readmem() == nil || w.Lulesh() == nil || w.Comd() == nil || w.Xsbench() == nil || w.Minife() == nil {
		t.Fatal("smoke workloads incomplete")
	}
}

// Lazy workloads build each app exactly once and honor the per-app config
// overrides the Figure 7 sweep installs.
func TestWorkloadsLazyAndOverridable(t *testing.T) {
	w := newWorkloads(context.Background(), ScaleSmoke, timing.Double)
	if w.lulesh != nil || w.comd != nil {
		t.Fatal("workloads built apps eagerly")
	}
	if p := w.Lulesh(); p != w.Lulesh() {
		t.Error("Lulesh() rebuilt the problem on second call")
	}
	if w.comd != nil {
		t.Error("Lulesh() built CoMD as a side effect")
	}

	f7 := fig7Workloads(context.Background(), ScaleSmoke)
	if got := f7.Lulesh().Cfg.Iters; got != 2 {
		t.Errorf("fig7 LULESH override not applied: Iters = %d, want 2", got)
	}
	if got := f7.Minife().Cfg.MaxIters; got != 5 {
		t.Errorf("fig7 miniFE override not applied: MaxIters = %d, want 5", got)
	}
}
