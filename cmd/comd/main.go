// Command comd runs the CoMD molecular-dynamics proxy application under
// every programming model, mirroring the paper's `./CoMD -x 60 -y 60 -z 60`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hetbench/internal/apps/comd"
	"hetbench/internal/harness"
)

func main() {
	x := flag.Int("x", 12, "unit cells in x (paper: 60)")
	y := flag.Int("y", 12, "unit cells in y (paper: 60)")
	z := flag.Int("z", 12, "unit cells in z (paper: 60)")
	iters := flag.Int("i", 10, "timesteps (paper: 100)")
	fn := flag.Int("functional", 2, "functional iterations (0 = all)")
	device := flag.String("device", "both", "apu | dgpu | both")
	precFlag := flag.String("precision", "double", "single | double")
	flag.Parse()

	prec, err := harness.ParsePrecision(*precFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	machines, err := harness.Machines(*device)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := comd.NewProblem(comd.Config{Nx: *x, Ny: *y, Nz: *z, Iters: *iters, FunctionalIters: *fn}, prec)
	err = harness.RunApp(context.Background(), os.Stdout, comd.AppName, machines, p.Run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
