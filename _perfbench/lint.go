package main

import (
	"context"
	"fmt"
	"strconv"
)

// lintPass runs one hetlint ./... pass with all analyzers and -jobs
// nproc. A pass that reports anything or exits non-zero is an error.
func (b *bench) lintPass(ctx context.Context) (procResult, error) {
	r, err := b.runProc(ctx, "hetlint", "-jobs", strconv.Itoa(b.jobs), "./...")
	if err != nil {
		return r, err
	}
	if len(r.Stdout) > 0 {
		return r, fmt.Errorf("hetlint reported findings:\n%s", r.Stdout)
	}
	return r, nil
}

// runLint is the lint workload: two warm-up passes as set-up, then
// passes until the time is up.
func runLint(ctx context.Context, b *bench) error {
	var setup []float64
	for i := 0; i < 2; i++ {
		r, err := b.lintPass(ctx)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, r.Wall.Seconds())
	}
	b.set("setup_s", median(setup), len(setup))

	var walls, cpus, rss []float64
	elapsed := measure(b.dur, func() {
		b.attempted++
		r, err := b.lintPass(ctx)
		if err != nil {
			b.fail("%v", err)
			return
		}
		walls = append(walls, ms(r.Wall))
		cpus = append(cpus, ms(r.CPU))
		rss = append(rss, float64(r.RSSKB)/1024)
	})
	b.setTiming("op_ms", walls)
	b.set("ops_per_s", float64(len(walls))/elapsed.Seconds(), len(walls))
	b.setTiming("cpu_ms_per_op", cpus)
	b.setTiming("peak_rss_mb", rss)
	return nil
}
