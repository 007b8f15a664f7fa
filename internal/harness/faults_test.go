package harness

import (
	"bytes"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/readmem"
	"hetbench/internal/fault"
	"hetbench/internal/models/modelapi"
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
	p := &readmem.Problem{Cfg: readmemConfig(ScaleSmoke, timing.Double)}
	golden := p.Run(sim.NewDGPU(), modelapi.OpenCL).Checksum
	pol := fault.DefaultPolicy()

	sawRedo := false
	for s := int64(1); s <= 8; s++ {
		m := sim.NewDGPU()
		m.SetFaultInjector(fault.New(fault.Config{Seed: s, BitFlipRate: 0.75}), pol)
		res, total, redos, correct := runResilient(m, pol, golden,
			func() appcore.Result { return p.Run(m, modelapi.OpenCL) })
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
	p := &readmem.Problem{Cfg: readmemConfig(ScaleSmoke, timing.Double), Memo: appcore.NewMemo(nil)}
	clean := p.Run(sim.NewDGPU(), modelapi.OpenCL).Checksum
	diverged := false
	for s := int64(1); s <= 8 && !diverged; s++ {
		m := sim.NewDGPU()
		m.SetFaultInjector(fault.New(fault.Config{Seed: s, BitFlipRate: 0.75}), fault.DefaultPolicy())
		diverged = p.Run(m, modelapi.OpenCL).Checksum != clean
	}
	if !diverged {
		t.Error("no seed in 1..8 diverged from the clean checksum at a 0.75 bit-flip rate")
	}
	if got := p.Run(sim.NewDGPU(), modelapi.OpenCL).Checksum; got != clean {
		t.Errorf("clean run after faulty ones: checksum %g, want %g", got, clean)
	}
}
