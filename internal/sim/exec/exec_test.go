package exec

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunCoversAllItems(t *testing.T) {
	const n = 10_000
	seen := make([]int32, n)
	Run(n, func(w *WorkItem) {
		atomic.AddInt32(&seen[w.Global], 1)
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d executed %d times, want exactly 1", i, c)
		}
	}
}

func TestRunTalliesCounters(t *testing.T) {
	const n = 1000
	r := Run(n, func(w *WorkItem) {
		w.Tally(Counters{SPFlops: 2, LoadBytes: 8, StoreBytes: 4, Instrs: 10})
	})
	if r.Items != n {
		t.Errorf("Items = %d, want %d", r.Items, n)
	}
	c := r.Counters
	if c.SPFlops != 2*n || c.LoadBytes != 8*n || c.StoreBytes != 4*n || c.Instrs != 10*n {
		t.Errorf("counters = %+v, want exact totals", c)
	}
	per := c.PerItem(n)
	if per.SPFlops != 2 || per.LoadBytes != 8 {
		t.Errorf("PerItem = %+v, want per-item values", per)
	}
	if (Counters{SPFlops: 5}).PerItem(0) != (Counters{}) {
		t.Error("PerItem(0) must be zero")
	}
}

func TestRunComputesRealResults(t *testing.T) {
	// The read-memory pattern: block sums.
	const block, blocks = 64, 128
	in := make([]float64, block*blocks)
	for i := range in {
		in[i] = float64(i % 7)
	}
	out := make([]float64, blocks)
	Run(blocks, func(w *WorkItem) {
		sum := 0.0
		st := w.Global * block
		for j := 0; j < block; j++ {
			sum += in[st+j]
		}
		out[w.Global] = sum
	})
	for i := 0; i < blocks; i++ {
		want := 0.0
		for j := 0; j < block; j++ {
			want += in[i*block+j]
		}
		if out[i] != want {
			t.Fatalf("block %d sum = %g, want %g", i, out[i], want)
		}
	}
}

func TestRunPanicsOnBadGlobal(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run(%d) did not panic", n)
				}
			}()
			Run(n, func(*WorkItem) {})
		}()
	}
}

// Barrier semantics: phase 1 writes LDS, phase 2 reads every element written
// by *other* items of the group. If phases overlapped, reads would observe
// zeros.
func TestRunTiledBarrierSemantics(t *testing.T) {
	const local, groups = 64, 32
	global := local * groups
	out := make([]float64, global)
	r := RunTiled(global, local, local,
		func(g *Group, l int) {
			g.LDS[l] = float64(g.GlobalID(l) + 1)
		},
		func(g *Group, l int) {
			sum := 0.0
			for i := 0; i < g.Size; i++ {
				sum += g.LDS[i]
			}
			out[g.GlobalID(l)] = sum
			g.Tally(Counters{LDSBytes: float64(8 * g.Size)})
		},
	)
	for gid := 0; gid < groups; gid++ {
		want := 0.0
		for l := 0; l < local; l++ {
			want += float64(gid*local + l + 1)
		}
		for l := 0; l < local; l++ {
			if got := out[gid*local+l]; got != want {
				t.Fatalf("group %d item %d = %g, want %g (barrier violated)", gid, l, got, want)
			}
		}
	}
	if r.Groups != groups {
		t.Errorf("Groups = %d, want %d", r.Groups, groups)
	}
	wantLDS := float64(8 * local * local * groups)
	if math.Abs(r.Counters.LDSBytes-wantLDS) > 1e-6 {
		t.Errorf("LDS bytes = %g, want %g", r.Counters.LDSBytes, wantLDS)
	}
}

func TestRunTiledGroupIsolation(t *testing.T) {
	// Each group writes a group-specific stamp in phase 1 and verifies it
	// in phase 2; leakage across groups (shared LDS) would trip this.
	const local, groups = 16, 64
	var bad int32
	RunTiled(local*groups, local, 1,
		func(g *Group, l int) {
			if l == 0 {
				g.LDS[0] = float64(g.ID)
			}
		},
		func(g *Group, l int) {
			if g.LDS[0] != float64(g.ID) {
				atomic.AddInt32(&bad, 1)
			}
		},
	)
	if bad != 0 {
		t.Errorf("%d items observed another group's LDS", bad)
	}
}

func TestRunTiledPanics(t *testing.T) {
	cases := []struct {
		name               string
		global, local, lds int
		phases             []Phase
	}{
		{"zero global", 0, 8, 0, []Phase{func(*Group, int) {}}},
		{"zero local", 64, 0, 0, []Phase{func(*Group, int) {}}},
		{"non-multiple", 65, 8, 0, []Phase{func(*Group, int) {}}},
		{"negative lds", 64, 8, -1, []Phase{func(*Group, int) {}}},
		{"no phases", 64, 8, 0, nil},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RunTiled %s did not panic", c.name)
				}
			}()
			RunTiled(c.global, c.local, c.lds, c.phases...)
		}()
	}
}

func TestQuickRunTiledCoverage(t *testing.T) {
	f := func(a, b uint8) bool {
		local := int(a%32) + 1
		groups := int(b%16) + 1
		global := local * groups
		var count int64
		RunTiled(global, local, 0, func(g *Group, l int) {
			atomic.AddInt64(&count, 1)
		})
		return count == int64(global)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCountersAdd(t *testing.T) {
	var c Counters
	c.Add(Counters{SPFlops: 1, DPFlops: 2, LoadBytes: 3, StoreBytes: 4, LDSBytes: 5, Instrs: 6})
	c.Add(Counters{SPFlops: 1, DPFlops: 2, LoadBytes: 3, StoreBytes: 4, LDSBytes: 5, Instrs: 6})
	want := Counters{SPFlops: 2, DPFlops: 4, LoadBytes: 6, StoreBytes: 8, LDSBytes: 10, Instrs: 12}
	if c != want {
		t.Errorf("Add = %+v, want %+v", c, want)
	}
}

// perItem is an integer-valued tally, as every app kernel's is.
var perItem = Counters{SPFlops: 3, DPFlops: 5, LoadBytes: 24, StoreBytes: 8, LDSBytes: 16, Instrs: 41}

// TestTotalsIndependentOfWorkers pins the accounting contract: whatever
// the worker count, and so the chunking, per-item Tally, Uniform and
// RunTiled all total exactly per × global. The sizes include globals
// below the worker count and globals that do not divide evenly.
func TestTotalsIndependentOfWorkers(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		for _, global := range []int{1, 2, 3, 5, 7, 8, 1000, 4099} {
			t.Run(fmt.Sprintf("procs=%d/global=%d", procs, global), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				want := perItem.scaled(float64(global))
				seen := make([]int32, global)
				forms := []struct {
					name string
					res  Result
				}{
					{"tally", Run(global, func(w *WorkItem) { w.Tally(perItem) })},
					{"uniform", Run(global, Uniform(perItem, func(i int) { atomic.AddInt32(&seen[i], 1) }))},
					{"tiled", RunTiled(global, 1, 0, func(g *Group, _ int) { g.Tally(perItem) })},
				}
				for _, f := range forms {
					if f.res.Counters != want {
						t.Errorf("%s total = %+v, want %+v", f.name, f.res.Counters, want)
					}
					if f.res.Items != global {
						t.Errorf("%s Items = %d, want %d", f.name, f.res.Items, global)
					}
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("uniform body ran item %d %d times, want exactly 1", i, c)
					}
				}
			})
		}
	}
}

func BenchmarkRunSimple(b *testing.B) {
	in := make([]float64, 1<<16)
	out := make([]float64, 1<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(1<<10, func(w *WorkItem) {
			sum := 0.0
			st := w.Global * 64
			for j := 0; j < 64; j++ {
				sum += in[st+j]
			}
			out[w.Global] = sum
		})
	}
}
