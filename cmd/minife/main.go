// Command minife runs the miniFE finite-element proxy application under
// every programming model, mirroring `./miniFE -nx 100 -ny 100 -nz 100`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/minife"
	"hetbench/internal/harness"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
)

func main() {
	nx := flag.Int("nx", 48, "elements in x (paper: 100)")
	ny := flag.Int("ny", 48, "elements in y (paper: 100)")
	nz := flag.Int("nz", 48, "elements in z (paper: 100)")
	iters := flag.Int("i", 60, "max CG iterations (paper: 200)")
	tol := flag.Float64("tol", 1e-8, "relative residual tolerance (0 = fixed iterations)")
	fn := flag.Int("functional", 0, "functional CG iterations (0 = all)")
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
	p := minife.NewProblem(minife.Config{Nx: *nx, Ny: *ny, Nz: *nz, MaxIters: *iters, Tol: *tol, FunctionalIters: *fn}, prec)
	fmt.Printf("system: %d unknowns, %d nonzeros\n\n", p.Cfg.NumRows(), p.Cfg.NNZ())
	err = harness.RunApp(context.Background(), os.Stdout, minife.AppName, machines,
		func(m *sim.Machine, model modelapi.Name) appcore.Result { return p.Run(m, model).Result })
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
