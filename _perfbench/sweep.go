package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// sweepOp is one regeneration of the six sweep experiments.
type sweepOp struct {
	Wall, CPU time.Duration
	RSSKB     int64
	Outputs   [][]byte
}

// sweepPass runs every sweep experiment once, each in a fresh hetbench
// process with the given runner worker count.
func (b *bench) sweepPass(ctx context.Context, jobs int) (sweepOp, error) {
	var op sweepOp
	start := time.Now()
	for _, exp := range sweepExps {
		r, err := b.runProc(ctx, "hetbench", "-exp", exp, "-scale", "small",
			"-seed", strconv.FormatInt(expSeed(b.seed), 10), "-jobs", strconv.Itoa(jobs))
		if err != nil {
			return op, err
		}
		op.CPU += r.CPU
		op.RSSKB = max(op.RSSKB, r.RSSKB)
		op.Outputs = append(op.Outputs, r.Stdout)
	}
	op.Wall = time.Since(start)
	return op, nil
}

// firstDiff returns the index of the first experiment whose output
// differs between two passes, or -1.
func firstDiff(a, b [][]byte) int {
	for i := range a {
		if i >= len(b) || !bytes.Equal(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// runSweep is the sweep workload. Set-up makes the -jobs 1 reference
// twice, side by side on one CPU each; the two must agree. Then ops at
// -jobs nproc run until the time is up, and each must reproduce the
// reference byte for byte.
func runSweep(ctx context.Context, b *bench) error {
	var refs [2]sweepOp
	var errs [2]error
	var wg sync.WaitGroup
	for i := range refs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			refs[i], errs[i] = b.sweepPass(ctx, 1)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	if i := firstDiff(refs[0].Outputs, refs[1].Outputs); i >= 0 {
		return fmt.Errorf("set-up: two -jobs 1 runs of %s disagree", sweepExps[i])
	}
	b.set("setup_s", median([]float64{refs[0].Wall.Seconds(), refs[1].Wall.Seconds()}), 2)
	// Peak memory comes from the -jobs 1 reference: at -jobs nproc the
	// peak depends on which cells happen to overlap, and swings by a
	// third from run to run.
	b.set("peak_rss_mb", median([]float64{float64(refs[0].RSSKB), float64(refs[1].RSSKB)})/1024, 2)

	var walls, cpus []float64
	elapsed := measure(b.dur, func() {
		b.attempted++
		op, err := b.sweepPass(ctx, b.jobs)
		if err != nil {
			b.fail("%v", err)
			return
		}
		if i := firstDiff(op.Outputs, refs[0].Outputs); i >= 0 {
			b.fail("%s at -jobs %d differs from the -jobs 1 reference", sweepExps[i], b.jobs)
			return
		}
		walls = append(walls, ms(op.Wall))
		cpus = append(cpus, ms(op.CPU))
	})
	b.setTiming("op_ms", walls)
	b.set("ops_per_s", float64(len(walls))/elapsed.Seconds(), len(walls))
	b.setTiming("cpu_ms_per_op", cpus)
	return nil
}
