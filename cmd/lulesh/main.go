// Command lulesh runs the LULESH shock-hydrodynamics proxy application
// under every programming model on the simulated machines, mirroring the
// paper's `./LULESH -s 100 -i 100`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hetbench/internal/apps/lulesh"
	"hetbench/internal/harness"
)

func main() {
	s := flag.Int("s", 48, "mesh edge in elements (paper: 100)")
	iters := flag.Int("i", 20, "timesteps (paper: 100)")
	fn := flag.Int("functional", 2, "functional iterations (0 = all; rest replay measured costs)")
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
	p := lulesh.NewProblem(lulesh.Config{S: *s, Iters: *iters, FunctionalIters: *fn}, prec)
	err = harness.RunApp(context.Background(), os.Stdout, lulesh.AppName, machines, p.Run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
