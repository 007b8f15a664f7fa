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

// TestTopAddressAtLineSize1 covers the one line address a reserved
// empty-way marker would collide with: at line size 1, ^uint64(0) is its
// own line address. It must miss cold, hit warm, age out under LRU like
// any other line, and AccessRange must stop at it rather than wrap.
func TestTopAddressAtLineSize1(t *testing.T) {
	const top = ^uint64(0)
	c := New(Config{SizeBytes: 4, LineBytes: 1, Ways: 2}) // 2 sets
	if c.Access(top) {
		t.Fatal("cold access to the top address hit")
	}
	if !c.Access(top) {
		t.Fatal("warm access to the top address missed")
	}
	c.Access(top - 2) // same set: top is now LRU
	c.Access(top - 4) // evicts top
	if c.Access(top) {
		t.Error("top address hit after two newer lines of its 2-way set")
	}
	want := Stats{Accesses: 5, Hits: 1, Misses: 4, Evictions: 2}
	if got := c.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}

	r := New(Config{SizeBytes: 4, LineBytes: 1, Ways: 2})
	if m := r.AccessRange(top-1, 2); m != 2 {
		t.Errorf("AccessRange over the top two bytes = %d misses, want 2", m)
	}
	if m := r.AccessRange(top, 1); m != 0 {
		t.Errorf("AccessRange(top, 1) after touching it = %d misses, want 0", m)
	}
	if got := r.Stats().Accesses; got != 3 {
		t.Errorf("AccessRange made %d accesses, want 3", got)
	}
}

// TestMatchesReferenceOnAppTraces replays three trace shapes through
// Cache and the stamp-scan reference (refCache) at both LLC geometries the
// simulator models: the APU's 512 sets (mask indexing) and the dGPU's 768
// (modulo indexing), 16 ways of 64 B each. Every access must hit or miss
// alike and the final Stats, evictions included, must be equal.
func TestMatchesReferenceOnAppTraces(t *testing.T) {
	// stream reads 8-byte elements in order, 8 accesses per line.
	stream := func(touch func(uint64)) {
		for a := uint64(0); a < 1<<21; a += 8 {
			touch(a)
		}
	}
	// gather is LULESH's element loop on its small-scale 32³ hex mesh:
	// each element reads its 8 corner nodes in 3 coordinate arrays, then
	// its own record.
	gather := func(touch func(uint64)) {
		const s, n = 32, 33 // elements and nodes per edge
		base := func(i int) uint64 { return uint64(i) * 64 << 20 }
		for e := 0; e < s*s*s; e++ {
			x, y, z := e%s, e/s%s, e/(s*s)
			for c := 0; c < 8; c++ {
				node := uint64((z+c/4)*n*n + (y+c/2%2)*n + x + (c%2 ^ c/2%2))
				for arr := 0; arr < 3; arr++ {
					touch(base(arr) + node*8)
				}
			}
			touch(base(3) + uint64(e)*8)
		}
	}
	// scatter draws 2^17 LCG addresses over 256 MB: nearly every access
	// misses and, once the sets fill, evicts.
	scatter := func(touch func(uint64)) {
		x := uint64(1)
		for i := 0; i < 1<<17; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			touch(x >> 36 &^ 7)
		}
	}
	// Each shape's miss rate must be what its name says.
	traces := []struct {
		name             string
		trace            func(touch func(uint64))
		minMiss, maxMiss float64
	}{{"stream", stream, 1.0 / 8, 1.0 / 8}, {"gather", gather, 0.001, 0.2}, {"scatter", scatter, 0.95, 1}}
	for _, geo := range []struct {
		name string
		cfg  Config
	}{
		{"apu", Config{SizeBytes: 512 << 10, LineBytes: 64, Ways: 16}},
		{"dgpu", Config{SizeBytes: 768 << 10, LineBytes: 64, Ways: 16}},
	} {
		for _, tr := range traces {
			t.Run(geo.name+"/"+tr.name, func(t *testing.T) {
				c := New(geo.cfg)
				ref := newRef(c)
				i := 0
				tr.trace(func(addr uint64) {
					if got, want := c.Access(addr), ref.access(addr); got != want {
						t.Fatalf("access %d (%#x): hit=%v, reference hit=%v", i, addr, got, want)
					}
					i++
				})
				if c.Stats() != ref.stats {
					t.Fatalf("stats %+v, reference %+v", c.Stats(), ref.stats)
				}
				s := c.Stats()
				if r := s.MissRate(); r < tr.minMiss || r > tr.maxMiss || s.Evictions == 0 {
					t.Errorf("%+v: miss rate %g outside [%g, %g] or no evictions", s, r, tr.minMiss, tr.maxMiss)
				}
			})
		}
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
