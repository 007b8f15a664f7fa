package workload

import (
	"testing"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
)

func mustProgram(t *testing.T, src string) *Program {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStagingPerStrategy pins the number of priced copies for the diamond
// on the dGPU, one model at a time — the per-edge staging semantics the
// interpreter exists to model.
func TestStagingPerStrategy(t *testing.T) {
	tests := []struct {
		model     modelapi.Name
		transfers int
	}{
		// OpenCL: in once (left stages `in`, right finds it resident, join
		// reads device-fresh a and b), out once (final read of `out`);
		// a and b never cross the link.
		{modelapi.OpenCL, 2},
		// C++ AMP: every captured view syncs in (in, a, b, out — the
		// runtime cannot prove out unread before join writes it), and the
		// final synchronize brings out home: in,a,b,out in + out back = 5.
		{modelapi.CppAMP, 5},
		// OpenACC region copies: left (in,a ×2) + right (in,b ×2) + join
		// (a,b,out ×2) = 14, re-paid every region.
		{modelapi.OpenACC, 14},
	}
	for _, tc := range tests {
		t.Run(string(tc.model), func(t *testing.T) {
			prog := mustProgram(t, validSpec)
			m := sim.NewDGPU()
			res := Execute(m, prog, Options{Model: tc.model})
			if res.Transfers != tc.transfers {
				t.Errorf("%s priced %d staging copies, want %d", tc.model, res.Transfers, tc.transfers)
			}
			if res.MovedBytes == 0 {
				t.Error("no bytes moved across PCIe")
			}
			if res.Kernels != 3 || res.HostKernels+res.AccelKernels != 3 {
				t.Errorf("kernel accounting off: %+v", res)
			}
		})
	}
}

// TestUnifiedMachineMovesNothing is the APU argument: shared physical
// memory prices no staging under any model.
func TestUnifiedMachineMovesNothing(t *testing.T) {
	for _, model := range modelapi.All() {
		prog := mustProgram(t, validSpec)
		res := Execute(sim.NewAPU(), prog, Options{Model: model})
		if res.Transfers != 0 || res.MovedBytes != 0 {
			t.Errorf("%s moved %d copies / %d bytes on the APU, want none",
				model, res.Transfers, res.MovedBytes)
		}
	}
}

// TestDagBeatsSerial asserts the tentpole claim: co-scheduling the
// diamond's independent branches beats serialized execution on the APU,
// where the two devices share memory and the host branch is free to
// overlap.
func TestDagBeatsSerial(t *testing.T) {
	prog := mustProgram(t, validSpec)
	serial := Execute(sim.NewAPU(), prog, Options{Model: modelapi.OpenCL})
	dag := Execute(sim.NewAPU(), prog, Options{
		Model:   modelapi.OpenCL,
		Planner: sched.NewDag(sched.Dynamic),
	})
	if dag.ElapsedNs >= serial.ElapsedNs {
		t.Errorf("DAG schedule (%.0f ns) did not beat serial (%.0f ns)",
			dag.ElapsedNs, serial.ElapsedNs)
	}
	if dag.HostKernels == 0 {
		t.Error("dynamic planner never used the host — nothing overlapped")
	}
}

// TestExecuteDeterministic replays the same options twice on fresh
// machines and demands identical results, serial and DAG.
func TestExecuteDeterministic(t *testing.T) {
	for _, planner := range []bool{false, true} {
		var first Result
		for i := 0; i < 3; i++ {
			prog := mustProgram(t, validSpec)
			opt := Options{Model: modelapi.CppAMP}
			if planner {
				opt.Planner = sched.NewDag(sched.HGuided)
			}
			res := Execute(sim.NewDGPU(), prog, opt)
			if i == 0 {
				first = res
			} else if res != first {
				t.Fatalf("planner=%v run %d differs: %+v vs %+v", planner, i, res, first)
			}
		}
	}
}

// TestIterationsResidency checks OpenCL residency persists across
// iterations (inputs cross once) while OpenACC re-pays its region copies
// every iteration.
func TestIterationsResidency(t *testing.T) {
	prog := mustProgram(t, validSpec)
	cl3 := Execute(sim.NewDGPU(), prog, Options{Model: modelapi.OpenCL, Iterations: 3})
	// Iteration 1 stages `in` and the final sync returns `out`; iterations
	// 2–3 find everything resident: still 2 copies total.
	if cl3.Transfers != 2 {
		t.Errorf("OpenCL over 3 iterations priced %d copies, want 2", cl3.Transfers)
	}
	prog = mustProgram(t, validSpec)
	acc1 := Execute(sim.NewDGPU(), prog, Options{Model: modelapi.OpenACC, Iterations: 1})
	prog = mustProgram(t, validSpec)
	acc3 := Execute(sim.NewDGPU(), prog, Options{Model: modelapi.OpenACC, Iterations: 3})
	if acc3.Transfers != 3*acc1.Transfers {
		t.Errorf("OpenACC copies did not scale with iterations: %d vs 3×%d",
			acc3.Transfers, acc1.Transfers)
	}
}

// TestHostPinnedKernelStaysHome checks placement constraints survive both
// execution paths.
func TestHostPinnedKernelStaysHome(t *testing.T) {
	src := `{
	  "name": "pinned",
	  "kernels": [
	    {"name": "gpu", "class": "streaming", "items": 1048576, "sp_flops": 8, "load_bytes": 16},
	    {"name": "cpu", "class": "irregular", "items": 64, "device": "host", "after": ["gpu"]}
	  ]
	}`
	for _, planner := range []bool{false, true} {
		prog := mustProgram(t, src)
		opt := Options{Model: modelapi.OpenCL}
		if planner {
			opt.Planner = sched.NewDag(sched.Static)
		}
		res := Execute(sim.NewDGPU(), prog, opt)
		if res.HostKernels != 1 {
			t.Errorf("planner=%v: host-pinned kernel ran %d times on the host", planner, res.HostKernels)
		}
	}
}
