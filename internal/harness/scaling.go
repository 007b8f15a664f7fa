package harness

import (
	"context"
	"fmt"
	"io"

	"hetbench/internal/apps/lulesh"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/mpix"
	"hetbench/internal/report"
	"hetbench/internal/sim/timing"
)

// scalingRankCounts are the cluster sizes the extension sweeps.
var scalingRankCounts = []int{1, 2, 4, 8, 16, 32}

// ScalingData strong-scales LULESH across a simulated InfiniBand cluster
// of discrete-GPU nodes — the MPI half of the paper's MPI+X stack
// (extension beyond the paper's single-node evaluation).
func ScalingData(ctx context.Context, scale Scale) ([]lulesh.MPIXResult, error) {
	cfg := lulesh.Config{S: 32, Iters: 10, FunctionalIters: 1}
	switch scale {
	case ScaleDefault:
		cfg = lulesh.Config{S: 64, Iters: 20, FunctionalIters: 1}
	case ScalePaper:
		cfg = lulesh.Config{S: 96, Iters: 50, FunctionalIters: 1} // 96 divides all rank counts
	}
	// One runner cell per cluster size: each rank-count measurement builds
	// its own problem and machines, so the sweep scales with host cores.
	return runner.Map(ctx, "scaling", len(scalingRankCounts), func(cx *runner.Ctx, i int) lulesh.MPIXResult {
		p := &lulesh.Problem{Cfg: cfg, Precision: timing.Double, Memo: memoOf(cx.Context())}
		return p.StrongScaling([]int{scalingRankCounts[i]}, mpix.DefaultFabric())[0]
	})
}

// RunScaling renders the strong-scaling table.
func RunScaling(ctx context.Context, scale Scale, w io.Writer) error {
	results, err := ScalingData(ctx, scale)
	if err != nil {
		return err
	}
	sp := lulesh.Speedups(results)
	t := report.NewTable("LULESH MPI+OpenCL strong scaling (slab decomposition, FDR-class fabric)",
		"Ranks", "Time/run ms", "Speedup", "Efficiency", "Comm share")
	for i, r := range results {
		t.AddRowf(r.Ranks,
			fmt.Sprintf("%.3f", r.ElapsedNs/1e6),
			fmt.Sprintf("%.2f", sp[i]),
			fmt.Sprintf("%.2f", r.Efficiency(results[0])),
			fmt.Sprintf("%.1f%%", r.CommFraction()*100))
	}
	_, err = t.WriteTo(w)
	return err
}
