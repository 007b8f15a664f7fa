package harness

import (
	"bytes"
	"strings"
	"testing"

	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/readmem"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
)

// findCell pulls one (machine, app, partitioner) cell out of a sweep.
func findCell(t *testing.T, cells []CoexecCell, machine, app, part string) CoexecCell {
	t.Helper()
	for _, c := range cells {
		if c.Machine == machine && c.App == app && c.Partition == part {
			return c
		}
	}
	t.Fatalf("no cell for %s/%s/%s", machine, app, part)
	return CoexecCell{}
}

// The ISSUE acceptance criterion: on the memory-bound readmem workload the
// dynamic partitioner's simulated time beats the worst static split on both
// machines.
func TestCoexecDynamicBeatsWorstStatic(t *testing.T) {
	cells := must(CoexecData(bg, ScaleSmoke))
	for _, mach := range []string{"APU", "dGPU"} {
		worst := 0.0
		for _, part := range []string{"static", "static25", "static75"} {
			if ns := findCell(t, cells, mach, readmem.AppName, part).Result.ElapsedNs; ns > worst {
				worst = ns
			}
		}
		dyn := findCell(t, cells, mach, readmem.AppName, "dynamic").Result.ElapsedNs
		if dyn >= worst {
			t.Errorf("%s: dynamic readmem %.0f ns did not beat worst static %.0f ns", mach, dyn, worst)
		}
	}
}

// Every scheduled cell must actually split work (both stats populated and
// all launched items accounted for somewhere) without breaking the app.
// Co-executed cells re-price the run memo's functional pass, so each
// checksum is held against a fresh, memo-less run of the same app, not
// against the gpu-only cell that shares the memo.
func TestCoexecCellsSplitAndStayCorrect(t *testing.T) {
	cells := must(CoexecData(WithMemo(bg, nil), ScaleSmoke))
	fresh := map[string]float64{}
	for _, app := range []string{readmem.AppName, lulesh.AppName, minife.AppName} {
		fresh[app] = runApp(nil, scaleConfigs(ScaleSmoke, timing.Double), app, sim.NewAPU(), modelapi.OpenMP).Checksum
	}
	for _, c := range cells {
		if want := fresh[c.App]; c.Result.Checksum != want {
			t.Errorf("%s/%s/%s: checksum %g != fresh run's %g",
				c.Machine, c.App, c.Partition, c.Result.Checksum, want)
		}
		if c.Partition == "gpu-only" {
			continue
		}
		if c.Stats.Splits == 0 || c.Stats.HostItems+c.Stats.AccelItems == 0 {
			t.Errorf("%s/%s/%s: no splits recorded: %+v", c.Machine, c.App, c.Partition, c.Stats)
		}
	}
}

// Two sweeps under the same seed and scale must be identical cell by cell —
// the coexec experiment's -seed determinism contract.
func TestCoexecDeterminism(t *testing.T) {
	a := must(CoexecData(bg, ScaleSmoke))
	b := must(CoexecData(bg, ScaleSmoke))
	if len(a) != len(b) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cell %d differs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// RunCoexec renders one table per machine and mentions the seed contract.
func TestRunCoexecOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := RunCoexec(bg, ScaleSmoke, &buf); err != nil {
		t.Fatalf("RunCoexec: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Co-execution on the APU", "Co-execution on the dGPU", "seed", "hguided", "dynamic", "gpu-only"} {
		if !strings.Contains(out, want) {
			t.Errorf("coexec output missing %q", want)
		}
	}
}
