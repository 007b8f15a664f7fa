package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 4096, LineBytes: 64, Ways: 4} }

func TestConfigValidate(t *testing.T) {
	good := []Config{
		small(),
		{SizeBytes: 768 << 10, LineBytes: 64, Ways: 16},
		{SizeBytes: 64, LineBytes: 64, Ways: 1},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 4},
		{SizeBytes: 4096, LineBytes: 0, Ways: 4},
		{SizeBytes: 4096, LineBytes: 63, Ways: 4},
		{SizeBytes: 4096, LineBytes: 64, Ways: 0},
		{SizeBytes: 4000, LineBytes: 64, Ways: 4}, // not divisible
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: -1, LineBytes: 64, Ways: 4})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	if c.Access(0x1000) {
		t.Error("first access hit; want cold miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed; want hit")
	}
	// Same line, different byte.
	if !c.Access(0x103F) {
		t.Error("same-line access missed; want hit")
	}
	// Next line.
	if c.Access(0x1040) {
		t.Error("next-line access hit; want miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 4/2/2", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way cache, 16 sets. Hammer one set with 5 distinct tags: the
	// least recently used must be evicted.
	c := New(small())
	setStride := uint64(16 * 64) // tags mapping to set 0
	for i := uint64(0); i < 4; i++ {
		c.Access(i * setStride)
	}
	// Touch tag 0 again so tag 1 becomes LRU.
	if !c.Access(0) {
		t.Fatal("tag 0 should hit")
	}
	// Insert a fifth tag: evicts tag 1.
	c.Access(4 * setStride)
	if !c.Access(0) {
		t.Error("tag 0 evicted; want retained (was MRU)")
	}
	if c.Access(1 * setStride) {
		t.Error("tag 1 hit; want evicted as LRU")
	}
	if c.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestStreamingMissRate(t *testing.T) {
	// A pure streaming pass over memory much larger than the cache
	// should miss once per line: with 4-byte accesses and 64-byte
	// lines, miss rate = 1/16.
	c := New(small())
	for addr := uint64(0); addr < 1<<20; addr += 4 {
		c.Access(addr)
	}
	got := c.Stats().MissRate()
	want := 1.0 / 16.0
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("streaming miss rate = %g, want ≈%g", got, want)
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than capacity must be all-hits after warmup.
	c := New(small())
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 2048; addr += 64 {
			c.Access(addr)
		}
	}
	// A fresh cache starts cold.
	if New(small()).Access(0) {
		t.Error("hit on a fresh cache; want cold miss")
	}

	s := c.Stats()
	wantMisses := uint64(2048 / 64) // only the first pass misses
	if s.Misses != wantMisses {
		t.Errorf("misses = %d, want %d (working set fits)", s.Misses, wantMisses)
	}
}

func TestAccessRange(t *testing.T) {
	c := New(small())
	// 256 bytes spanning 5 lines when misaligned by 32.
	misses := c.AccessRange(32, 256)
	if misses != 5 {
		t.Errorf("AccessRange misses = %d, want 5", misses)
	}
	if m := c.AccessRange(32, 256); m != 0 {
		t.Errorf("second AccessRange misses = %d, want 0", m)
	}
	if m := c.AccessRange(0, 0); m != 0 {
		t.Errorf("empty range misses = %d, want 0", m)
	}
	if m := c.AccessRange(0, -4); m != 0 {
		t.Errorf("negative range misses = %d, want 0", m)
	}
}

func TestStreamingReplayMissesEveryLine(t *testing.T) {
	trace := make([]uint64, 4096)
	for i := range trace {
		trace[i] = uint64(i) * 64
	}
	replay := func(trace []uint64) float64 {
		c := New(small())
		for _, a := range trace {
			c.AccessRange(a, 8)
		}
		return c.Stats().MissRate()
	}
	// Streaming 64-byte lines over 256 KB with a 4 KB cache: all miss.
	if got := replay(trace); got != 1.0 {
		t.Errorf("streaming replay miss rate = %g, want 1.0", got)
	}
	// Empty trace.
	if got := replay(nil); got != 0 {
		t.Errorf("empty replay miss rate = %g, want 0", got)
	}
}

func TestStatsRates(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("zero stats must have a zero miss rate")
	}
	s = Stats{Accesses: 10, Hits: 7, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("miss rate = %g, want 0.3", s.MissRate())
	}
}

// Property: hits + misses == accesses, and a bigger cache never has a
// worse hit count on the same trace (LRU inclusion property holds for
// same-line-size, same-associativity stacked sizes... we check the weaker
// monotone-in-practice property on random traces with doubled capacity and
// doubled ways, which preserves the set mapping).
func TestQuickCacheInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]uint64, int(n)%512+16)
		for i := range trace {
			trace[i] = uint64(rng.Intn(1 << 16))
		}
		cSmall := New(Config{SizeBytes: 2048, LineBytes: 64, Ways: 2})
		cBig := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
		for _, a := range trace {
			cSmall.Access(a)
			cBig.Access(a)
		}
		ss, sb := cSmall.Stats(), cBig.Stats()
		if ss.Hits+ss.Misses != ss.Accesses || sb.Hits+sb.Misses != sb.Accesses {
			return false
		}
		// LRU stack property: doubling ways with same set count
		// can only add hits.
		return sb.Hits >= ss.Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSetsAndConfigAccessors(t *testing.T) {
	c := New(small())
	if c.sets != 16 {
		t.Errorf("sets = %d, want 16", c.sets)
	}
	if c.cfg != small() {
		t.Errorf("cfg = %+v, want %+v", c.cfg, small())
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(Config{SizeBytes: 768 << 10, LineBytes: 64, Ways: 16})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 28))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(1<<16-1)])
	}
}
