package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetComputesOncePerKey(t *testing.T) {
	var m Map[string, int]
	calls := 0
	compute := func(v int) func() int { return func() int { calls++; return v } }
	if got := m.Get("a", compute(1)); got != 1 {
		t.Fatalf("Get(a) = %d, want 1", got)
	}
	if got := m.Get("a", compute(2)); got != 1 {
		t.Fatalf("second Get(a) = %d, want the first value 1", got)
	}
	if got := m.Get("b", compute(3)); got != 3 {
		t.Fatalf("Get(b) = %d, want 3", got)
	}
	if calls != 2 || m.Len() != 2 {
		t.Fatalf("calls = %d, Len = %d; want 2 and 2", calls, m.Len())
	}
}

func TestNilMapComputesEveryTime(t *testing.T) {
	var m *Map[int, int]
	calls := 0
	for i := 0; i < 3; i++ {
		if got := m.Get(7, func() int { calls++; return calls }); got != i+1 {
			t.Fatalf("nil Get #%d = %d, want %d", i, got, i+1)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("nil Len = %d, want 0", m.Len())
	}
}

// Cells asking for the same key at once share one computation: those
// that arrive while it runs wait for it instead of repeating it. Run
// under -race.
func TestConcurrentGetsShareOneComputation(t *testing.T) {
	var m Map[string, []int]
	var calls atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	compute := func() []int {
		if calls.Add(1) == 1 {
			close(started)
		}
		<-release
		return []int{4, 2}
	}
	const cells = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]int, cells)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = m.Get("k", compute)
		}(i)
	}
	close(start)
	<-started
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, g := range got {
		if len(g) != 2 || &g[0] != &got[0][0] {
			t.Fatalf("cell %d got %v, want the shared value", i, g)
		}
	}
}

func TestPanicRepeatsForEveryGet(t *testing.T) {
	var m Map[int, int]
	calls := 0
	get := func() (r any) {
		defer func() { r = recover() }()
		m.Get(1, func() int { calls++; panic("boom") })
		return nil
	}
	for i := 0; i < 2; i++ {
		if r := get(); r != "boom" {
			t.Fatalf("Get #%d recovered %v, want boom", i, r)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}
