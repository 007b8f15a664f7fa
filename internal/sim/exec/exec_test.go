package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
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
	c := Run(n, func(w *WorkItem) {
		w.Tally(0, Counters{SPFlops: 2, LoadBytes: 8, StoreBytes: 4, Instrs: 10})
	})[0]
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
// the worker count, and so the chunking, per-item Tally and Uniform both
// total exactly per × global. The sizes include globals
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
					got  Counters
				}{
					{"tally", Run(global, func(w *WorkItem) { w.Tally(0, perItem) })[0]},
					{"uniform", Run(global, Uniform(Views{perItem}, func(i int) { atomic.AddInt32(&seen[i], 1) }))[0]},
				}
				for _, f := range forms {
					if f.got != want {
						t.Errorf("%s total = %+v, want %+v", f.name, f.got, want)
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

// Each view keeps its own totals: a launch tallying every view equals,
// view by view and bit for bit, a launch that tallied that view alone,
// whatever the worker count. The per-item tallies are non-integer, so
// the summation order shows.
func TestViewsTallyIndependently(t *testing.T) {
	const global = 4099
	item := func(i, v int) Counters {
		return Counters{LoadBytes: float64(i%13+v) / 7, Instrs: float64(v+1) * 0.1}
	}
	for _, procs := range []int{1, 3} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			all := Measure(global, func(w *WorkItem) {
				for v := range MaxViews {
					w.Tally(v, item(w.Global, v))
				}
			})
			for v := range MaxViews {
				alone := Measure(global, func(w *WorkItem) { w.Tally(0, item(w.Global, v)) })
				if all[v] != alone[0] {
					t.Errorf("view %d: %+v tallied with the others, %+v alone", v, all[v], alone[0])
				}
			}
		})
	}
}

// classPer is an integer-valued tally per class and view, every value
// distinct, as miniFE's SpMV charges by row class.
func classPer() []Views {
	per := make([]Views, MaxClasses)
	for k := range per {
		for v := range per[k] {
			f := float64(k*MaxViews + v + 1)
			per[k][v] = Counters{SPFlops: 2 * f, DPFlops: 3 * f, LoadBytes: 8 + 29*f, StoreBytes: f, LDSBytes: 7 * f, Instrs: 4*f + 1}
		}
	}
	return per
}

// A Classed launch equals, view by view and bit for bit, a launch whose
// every item tallies its class's counters itself, over random class
// sequences and item counts below, at and above the worker count.
func TestClassedMatchesPerItemTally(t *testing.T) {
	per := classPer()
	for _, procs := range []int{1, 3} {
		for _, global := range []int{1, 2, 3, 4, 7, 1000, 4099} {
			t.Run(fmt.Sprintf("procs=%d/global=%d", procs, global), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				rng := rand.New(rand.NewSource(int64(procs*10007 + global)))
				class := make([]int, global)
				for i := range class {
					class[i] = rng.Intn(MaxClasses)
				}
				seen := make([]int32, global)
				got := Run(global, Classed(per, func(i int) int {
					atomic.AddInt32(&seen[i], 1)
					return class[i]
				}))
				want := Run(global, func(w *WorkItem) {
					for v := range per[class[w.Global]] {
						w.Tally(v, per[class[w.Global]][v])
					}
				})
				for v := range want {
					if !sameBits(got[v], want[v]) {
						t.Errorf("view %d: classed %+v, per-item %+v", v, got[v], want[v])
					}
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("classed body ran item %d %d times, want exactly 1", i, c)
					}
				}
			})
		}
	}
}

// sameBits reports whether a and b hold the same float64 bits in every
// field.
func sameBits(a, b Counters) bool {
	fa := []float64{a.SPFlops, a.DPFlops, a.LoadBytes, a.StoreBytes, a.LDSBytes, a.Instrs}
	fb := []float64{b.SPFlops, b.DPFlops, b.LoadBytes, b.StoreBytes, b.LDSBytes, b.Instrs}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
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
