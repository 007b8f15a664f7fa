// Command readmem runs the paper's read-memory micro-benchmark (block
// sums of 64 contiguous elements) under every programming model.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hetbench/internal/apps/readmem"
	"hetbench/internal/harness"
)

func main() {
	blocks := flag.Int("blocks", 1<<17, "output blocks (input = blocks × 64 elements)")
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
	p := readmem.NewProblem(readmem.Config{Blocks: *blocks, Precision: prec})
	err = harness.RunApp(context.Background(), os.Stdout, readmem.AppName, machines, p.Run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
