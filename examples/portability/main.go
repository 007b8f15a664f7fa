// Portability: the paper's performance-portability claim — the same
// C++ AMP miniFE code, untouched, moved from the APU to the discrete GPU,
// scales with the better memory system, while the OpenCL version would
// need retuned staging code.
package main

import (
	"fmt"

	"hetbench/internal/apps/minife"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

func main() {
	problem := minife.NewProblem(minife.Config{
		Nx: 48, Ny: 48, Nz: 48,
		MaxIters: 40, Tol: 0, FunctionalIters: 3,
	}, timing.Double)
	fmt.Printf("miniFE: %d unknowns, %d nonzeros, CG with CSR-Adaptive SpMV\n\n",
		problem.Cfg.NumRows(), problem.Cfg.NNZ())

	apu := problem.Run(sim.NewAPU(), modelapi.CppAMP)
	dgpu := problem.Run(sim.NewDGPU(), modelapi.CppAMP)

	fmt.Printf("C++ AMP on %-18s: %8.3f ms (kernel %8.3f ms)\n", "the APU", apu.ElapsedNs/1e6, apu.KernelNs/1e6)
	fmt.Printf("C++ AMP on %-18s: %8.3f ms (kernel %8.3f ms)\n", "the R9 280X", dgpu.ElapsedNs/1e6, dgpu.KernelNs/1e6)
	fmt.Printf("\nkernel-time scaling from moving the SAME code: %.2f×\n", apu.KernelNs/dgpu.KernelNs)
	fmt.Println("(miniFE is bandwidth-bound; the dGPU has ~8× the memory bandwidth.")
	fmt.Println(" No source change was needed — the paper's portability argument.)")
}
