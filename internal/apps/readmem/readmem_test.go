package readmem

import (
	"fmt"
	"math"
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/exec"
	"hetbench/internal/sim/timing"
)

func cfg() Config { return Config{Blocks: 1 << 12, Precision: timing.Double} }

func TestAllModelsMatchReference(t *testing.T) {
	p := NewProblem(cfg())
	ref := p.ReferenceSums()
	want := 0.0
	for _, v := range ref {
		want += v
	}
	for _, model := range []modelapi.Name{modelapi.OpenMP, modelapi.OpenCL, modelapi.CppAMP, modelapi.OpenACC} {
		for _, m := range []*sim.Machine{sim.NewAPU(), sim.NewDGPU()} {
			r := p.Run(m, model)
			if r.Checksum != want {
				t.Errorf("%s on %s: checksum %g, want %g", model, m.Name(), r.Checksum, want)
			}
			if r.ElapsedNs <= 0 {
				t.Errorf("%s on %s: no time charged", model, m.Name())
			}
			if r.Kernels != 1 {
				t.Errorf("%s: kernels = %d, want 1 (Table I)", model, r.Kernels)
			}
		}
	}
}

// The paper's kernel-quality anchor (Figures 8a/9a): OpenCL fastest,
// C++ AMP ≈1.3× slower, OpenACC ≈2× slower, kernel time only. Uses a
// large instance so launch overhead does not dilute the ratios.
func TestKernelTimeRatios(t *testing.T) {
	p := NewProblem(Config{Blocks: 1 << 17, Precision: timing.Double})
	m := sim.NewDGPU()
	cl := p.Run(m, modelapi.OpenCL).KernelNs
	amp := p.Run(m, modelapi.CppAMP).KernelNs
	acc := p.Run(m, modelapi.OpenACC).KernelNs
	if r := amp / cl; r < 1.15 || r > 1.45 {
		t.Errorf("AMP/OpenCL kernel ratio = %.2f, want ≈1.3", r)
	}
	if r := acc / cl; r < 1.7 || r > 2.3 {
		t.Errorf("ACC/OpenCL kernel ratio = %.2f, want ≈2", r)
	}
}

// Memory-boundedness: on the dGPU the OpenCL kernel must be classified as
// bandwidth-limited, and the kernel-only speedup over OpenMP should be
// roughly the bandwidth ratio (an order of magnitude, per Section VI-A —
// the paper excludes data-transfer time for this benchmark).
func TestMemoryBoundSpeedupShape(t *testing.T) {
	p := NewProblem(Config{Blocks: 1 << 17, Precision: timing.Double})
	apu, dgpu := sim.NewAPU(), sim.NewDGPU()
	base := p.Run(apu, modelapi.OpenMP)
	clAPU := p.Run(sim.NewAPU(), modelapi.OpenCL)
	clDGPU := p.Run(dgpu, modelapi.OpenCL)

	sAPU := base.KernelNs / clAPU.KernelNs
	sDGPU := base.KernelNs / clDGPU.KernelNs
	if sDGPU <= sAPU {
		t.Errorf("dGPU speedup %.2f not above APU speedup %.2f (bandwidth ratio)", sDGPU, sAPU)
	}
	// APU OpenCL and OpenMP share the same DRAM: speedup near 1-2×.
	if sAPU < 0.5 || sAPU > 4 {
		t.Errorf("APU read-benchmark speedup = %.2f, want ≈1 (same memory)", sAPU)
	}
	// dGPU has ~8× the bandwidth.
	if sDGPU < 3 {
		t.Errorf("dGPU read-benchmark speedup = %.2f, want large", sDGPU)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Blocks: 0}).Validate(); err == nil {
		t.Error("zero blocks accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewProblem with bad config did not panic")
		}
	}()
	NewProblem(Config{Blocks: -1})
}

func TestRunUnknownModelPanics(t *testing.T) {
	p := NewProblem(cfg())
	defer func() {
		if recover() == nil {
			t.Error("unknown model did not panic")
		}
	}()
	p.Run(sim.NewAPU(), modelapi.Name("CUDA"))
}

func TestSinglePrecisionFasterOrEqual(t *testing.T) {
	sp := NewProblem(Config{Blocks: 1 << 12, Precision: timing.Single})
	dp := NewProblem(cfg())
	tSP := sp.Run(sim.NewDGPU(), modelapi.OpenCL).KernelNs
	tDP := dp.Run(sim.NewDGPU(), modelapi.OpenCL).KernelNs
	// Half the bytes: SP should be meaningfully faster on a
	// bandwidth-bound kernel.
	if tSP >= tDP {
		t.Errorf("SP kernel (%g) not faster than DP (%g)", tSP, tDP)
	}
}

// TestBlockSumsMatchStoredInput holds the kernel's block sums, which
// compute each input element from its index, to block sums over a stored
// input array, bit for bit, and ReferenceSums to the kernel's output.
func TestBlockSumsMatchStoredInput(t *testing.T) {
	for _, blocks := range []int{1, 17, 4096, 1001} {
		t.Run(fmt.Sprint(blocks), func(t *testing.T) {
			in := make([]float64, blocks*BlockSize)
			for i := range in {
				in[i] = float64(i%17) * 0.25
			}
			got := make([]float64, blocks)
			exec.Run(blocks, kernel(got))
			ref := NewProblem(Config{Blocks: blocks, Precision: timing.Double}).ReferenceSums()
			for b := range got {
				want := 0.0
				for _, v := range in[b*BlockSize : (b+1)*BlockSize] {
					want += v
				}
				if math.Float64bits(got[b]) != math.Float64bits(want) {
					t.Fatalf("block %d: kernel sum %v, stored input %v", b, got[b], want)
				}
				if math.Float64bits(ref[b]) != math.Float64bits(got[b]) {
					t.Fatalf("block %d: ReferenceSums %v, kernel %v", b, ref[b], got[b])
				}
			}
		})
	}
}
