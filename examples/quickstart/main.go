// Quickstart: run one kernel — the paper's read-memory block sum — under
// OpenCL, C++ AMP and OpenACC on both simulated machines, and print where
// the time goes. This is the smallest end-to-end use of the hetbench
// public surface: build a machine, pick a runtime, launch work, read the
// virtual clock.
package main

import (
	"fmt"

	"hetbench/internal/apps/readmem"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

func main() {
	problem := readmem.NewProblem(readmem.Config{
		Blocks:    1 << 16, // 64k blocks × 64 elements = 32 MB in doubles
		Precision: timing.Double,
	})

	for _, machine := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
		m := machine()
		fmt.Printf("== %s ==\n", m.Name())
		base := problem.Run(machine(), modelapi.OpenMP)
		fmt.Printf("  %-8s %8.3f ms (the 4-core baseline)\n", "OpenMP", base.ElapsedNs/1e6)
		for _, model := range modelapi.All() {
			r := problem.Run(machine(), model)
			fmt.Printf("  %-8s %8.3f ms  kernel %7.3f ms  transfers %7.3f ms  speedup %5.2f×\n",
				model, r.ElapsedNs/1e6, r.KernelNs/1e6, r.TransferNs/1e6, r.SpeedupOver(base))
		}
		fmt.Println()
	}
	fmt.Println("Note how the APU runs pay zero transfer time while the discrete GPU")
	fmt.Println("buries its faster kernels under PCIe copies — the paper's Section VI-A.")
}
