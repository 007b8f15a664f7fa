package modelapi

import (
	"testing"

	"hetbench/internal/sim/exec"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	for _, n := range []Name{OpenMP, OpenCL, CppAMP, OpenACC, HC} {
		p, ok := ps[n]
		if !ok {
			t.Fatalf("no profile for %s", n)
		}
		if p.Name != n {
			t.Errorf("profile name %s under key %s", p.Name, n)
		}
		if p.Compiler == "" {
			t.Errorf("%s: missing compiler string (Table III)", n)
		}
		for _, c := range []KernelClass{Streaming, Regular, Irregular} {
			v, m := p.VecEffFor(c), p.MemEffFor(c)
			if v <= 0 || v > 1 {
				t.Errorf("%s/%s: VecEff %g outside (0,1]", n, c, v)
			}
			if m <= 0 || m > 1 {
				t.Errorf("%s/%s: MemEff %g outside (0,1]", n, c, m)
			}
			if sf := p.SerialFractionFor(c); sf < 0 || sf >= 1 {
				t.Errorf("%s/%s: serial fraction %g outside [0,1)", n, c, sf)
			}
		}
	}
}

// Calibration anchors from the paper's read-benchmark discussion:
// OpenCL 1×, C++ AMP ≈1/1.3, OpenACC ≈1/2 on streaming kernels.
func TestStreamingCalibration(t *testing.T) {
	cl := ProfileFor(OpenCL).MemEffFor(Streaming)
	amp := ProfileFor(CppAMP).MemEffFor(Streaming)
	acc := ProfileFor(OpenACC).MemEffFor(Streaming)
	if cl != 1 {
		t.Errorf("OpenCL streaming MemEff = %g, want 1", cl)
	}
	if r := cl / amp; r < 1.25 || r > 1.35 {
		t.Errorf("OpenCL/AMP streaming ratio = %g, want ≈1.3", r)
	}
	if r := cl / acc; r < 1.9 || r > 2.1 {
		t.Errorf("OpenCL/ACC streaming ratio = %g, want ≈2", r)
	}
}

func TestCompilerQualityOrdering(t *testing.T) {
	// On every class: OpenCL ≥ C++ AMP ≥ OpenACC (Section VI
	// observations: "C++ AMP outperformed OpenACC in most cases").
	for _, c := range []KernelClass{Streaming, Regular, Irregular} {
		cl, amp, acc := ProfileFor(OpenCL), ProfileFor(CppAMP), ProfileFor(OpenACC)
		if !(cl.VecEffFor(c) >= amp.VecEffFor(c) && amp.VecEffFor(c) >= acc.VecEffFor(c)) {
			t.Errorf("%s: VecEff ordering violated", c)
		}
		if !(cl.MemEffFor(c) >= amp.MemEffFor(c) && amp.MemEffFor(c) >= acc.MemEffFor(c)) {
			t.Errorf("%s: MemEff ordering violated", c)
		}
	}
	// OpenACC's CoMD failure: a large scalar fraction on irregular loops.
	if sf := ProfileFor(OpenACC).SerialFractionFor(Irregular); sf < 0.5 {
		t.Errorf("OpenACC irregular serial fraction = %g, want large", sf)
	}
	if sf := ProfileFor(CppAMP).SerialFractionFor(Irregular); sf != 0 {
		t.Errorf("C++ AMP irregular serial fraction = %g, want 0", sf)
	}
}

func TestTransferStrategies(t *testing.T) {
	want := map[Name]TransferStrategy{
		OpenCL:  ExplicitTransfers,
		CppAMP:  ViewSyncTransfers,
		OpenACC: RegionCopyTransfers,
		OpenMP:  NoTransfers,
		HC:      ExplicitTransfers,
	}
	for n, s := range want {
		if got := ProfileFor(n).Strategy; got != s {
			t.Errorf("%s strategy = %v, want %v", n, got, s)
		}
	}
}

func TestProfileForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown model did not panic")
		}
	}()
	ProfileFor(Name("CUDA"))
}

func TestStringers(t *testing.T) {
	for _, c := range []KernelClass{Streaming, Regular, Irregular, KernelClass(9)} {
		if c.String() == "" {
			t.Error("empty KernelClass string")
		}
	}
	for _, s := range []TransferStrategy{ExplicitTransfers, ViewSyncTransfers, RegionCopyTransfers, NoTransfers, TransferStrategy(9)} {
		if s.String() == "" {
			t.Error("empty TransferStrategy string")
		}
	}
	if got := All(); len(got) != 3 || got[0] != OpenCL {
		t.Errorf("All() = %v", got)
	}
}

func TestKernelSpecValidateAndCost(t *testing.T) {
	good := KernelSpec{Name: "k", Class: Streaming, MissRate: 0.5, Coalesce: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []KernelSpec{
		{Name: "", MissRate: 0.5, Coalesce: 1},
		{Name: "k", MissRate: -0.1, Coalesce: 1},
		{Name: "k", MissRate: 1.1, Coalesce: 1},
		{Name: "k", MissRate: 0.5, Coalesce: 0},
		{Name: "k", MissRate: 0.5, Coalesce: 1.2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}

	per := exec.Counters{SPFlops: 3, LoadBytes: 16, StoreBytes: 8, Instrs: 12}
	cost := good.Cost(ProfileFor(OpenACC), 1000, per)
	if cost.Items != 1000 || cost.SPFlops != 3 || cost.LoadBytes != 16 {
		t.Errorf("cost work fields wrong: %+v", cost)
	}
	if cost.VecEff != ProfileFor(OpenACC).VecEffFor(Streaming) {
		t.Error("cost did not take profile VecEff")
	}
	if cost.MemEff != ProfileFor(OpenACC).MemEffFor(Streaming) {
		t.Error("cost did not take profile MemEff")
	}
	if err := cost.Validate(); err != nil {
		t.Errorf("assembled cost invalid: %v", err)
	}
}
