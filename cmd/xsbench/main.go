// Command xsbench runs the XSBench cross-section-lookup proxy application
// under every programming model, mirroring the paper's `./XSBench -s small`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hetbench/internal/apps/xsbench"
	"hetbench/internal/harness"
)

func main() {
	size := flag.String("s", "scaled", "data-set size: small (paper: 240 MB table, 15M lookups) | scaled")
	lookups := flag.Int("l", 400_000, "lookups (scaled size only)")
	grid := flag.String("grid", "unionized", "lookup structure: unionized | nuclide")
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
	var cfg xsbench.Config
	switch *size {
	case "small":
		cfg = xsbench.PaperSmall()
	case "scaled":
		cfg = xsbench.Config{Nuclides: 48, GridPoints: 4096, Lookups: *lookups}
	default:
		fmt.Fprintf(os.Stderr, "unknown size %q (small|scaled)\n", *size)
		os.Exit(2)
	}
	switch *grid {
	case "unionized":
		cfg.Grid = xsbench.UnionizedGrid
	case "nuclide":
		cfg.Grid = xsbench.NuclideGridOnly
	default:
		fmt.Fprintf(os.Stderr, "unknown grid %q (unionized|nuclide)\n", *grid)
		os.Exit(2)
	}
	p := xsbench.NewProblem(cfg, prec)
	fmt.Printf("lookup table: %.0f MB\n\n", float64(cfg.TableBytes(prec))/(1<<20))
	err = harness.RunApp(context.Background(), os.Stdout, xsbench.AppName, machines, p.Run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
