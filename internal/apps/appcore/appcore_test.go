package appcore

import (
	"math"
	"testing"
	"testing/quick"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim/cache"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/timing"
)

func TestEltBytesAndFlops(t *testing.T) {
	if EltBytes(timing.Single) != 4 || EltBytes(timing.Double) != 8 {
		t.Error("EltBytes wrong")
	}
	sp, dp := Flops(timing.Single, 10)
	if sp != 10 || dp != 0 {
		t.Errorf("Flops single = %g/%g", sp, dp)
	}
	sp, dp = Flops(timing.Double, 10)
	if sp != 0 || dp != 10 {
		t.Errorf("Flops double = %g/%g", sp, dp)
	}
}

func TestTraitsStreaming(t *testing.T) {
	dev := device.R9280X()
	// Pure streaming at 8 B: every byte requested reaches DRAM once →
	// missRate 1, coalesce 1.
	miss, coal, acc := Traits(dev, 8, func(touch func(uint64)) {
		for i := uint64(0); i < 1<<16; i++ {
			touch(i * 8)
		}
	})
	if math.Abs(miss-1) > 0.02 || coal != 1 {
		t.Errorf("streaming traits = %g/%g, want 1/1", miss, coal)
	}
	// Per-access miss rate for 8 B accesses on 64 B lines ≈ 1/8.
	if acc < 0.11 || acc > 0.14 {
		t.Errorf("per-access miss = %g, want ≈0.125", acc)
	}
}

func TestTraitsScatteredGather(t *testing.T) {
	dev := device.R9280X()
	// Strided 8 B reads, one per 4 KB page over a region far beyond the
	// L2: every access fetches a whole line for 8 useful bytes.
	miss, coal, acc := Traits(dev, 8, func(touch func(uint64)) {
		for i := uint64(0); i < 1<<15; i++ {
			touch(i * 4096)
		}
	})
	if miss != 1 {
		t.Errorf("scattered missRate = %g, want 1", miss)
	}
	if math.Abs(coal-8.0/64.0) > 0.01 {
		t.Errorf("scattered coalesce = %g, want 0.125 (8/64)", coal)
	}
	if acc < 0.99 {
		t.Errorf("per-access miss = %g, want ≈1", acc)
	}
}

func TestTraitsCacheResident(t *testing.T) {
	dev := device.R9280X()
	// A 64 KB working set hammered repeatedly: after warmup everything
	// hits → low missRate.
	miss, coal, _ := Traits(dev, 8, func(touch func(uint64)) {
		for pass := 0; pass < 8; pass++ {
			for a := uint64(0); a < 64<<10; a += 8 {
				touch(a)
			}
		}
	})
	if miss > 0.2 {
		t.Errorf("resident missRate = %g, want small", miss)
	}
	if coal != 1 {
		t.Errorf("coalesce = %g, want 1", coal)
	}
}

func TestTraitsDegenerate(t *testing.T) {
	dev := device.R9280X()
	if m, c, a := Traits(dev, 8, func(func(uint64)) {}); m != 0 || c != 1 || a != 0 {
		t.Error("empty trace traits wrong")
	}
	if m, c, _ := Traits(dev, 0, func(touch func(uint64)) { touch(0) }); m != 0 || c != 1 {
		t.Error("zero access size traits wrong")
	}
}

// scattered generates n pseudo-random 8-byte-aligned addresses over
// 256 MB, far beyond either LLC.
func scattered(n int) func(touch func(uint64)) {
	return func(touch func(uint64)) {
		s := uint64(1)
		for i := 0; i < n; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			touch(s >> 36 &^ 7)
		}
	}
}

// TestTraitsAllocatesOnlyTheCache guards the streamed replay: one Traits
// call allocates the simulated cache (its header and its one array) and
// the touch closure with the count it updates, never the trace, however
// long the trace runs.
func TestTraitsAllocatesOnlyTheCache(t *testing.T) {
	dev := device.R9280X()
	trace := scattered(1 << 19)
	allocs := testing.AllocsPerRun(3, func() { Traits(dev, 8, trace) })
	if allocs > 4 {
		t.Errorf("one Traits replay of 2^19 addresses allocates %v times, want ≤ 4 (the cache and the touch closure)", allocs)
	}
}

// rangeTraits is Traits with every access sent through AccessRange, the
// reference the one-line path is held to.
func rangeTraits(dev *device.Device, accessBytes int, trace func(touch func(uint64))) (missRate, coalesce, accessMissRate float64) {
	c := cache.New(cache.Config{SizeBytes: dev.L2SizeBytes, LineBytes: dev.CacheLineBytes, Ways: dev.L2Ways})
	n := 0
	trace(func(addr uint64) {
		c.AccessRange(addr, accessBytes)
		n++
	})
	st := c.Stats()
	ratio := float64(st.Misses) * float64(dev.CacheLineBytes) / float64(n*accessBytes)
	if ratio <= 1 {
		return ratio, 1, st.MissRate()
	}
	return 1, 1 / ratio, st.MissRate()
}

// TestTraitsMatchesRangeReference holds Traits, which sends an access
// that lies in one line straight to Access, to rangeTraits bit for bit
// on traces whose accesses straddle lines: CoMD's 12- and 24-byte
// position reads, gathered and streamed, and accesses ending at, or one
// to accessBytes−1 bytes past, a line's end. Both LLC geometries run.
func TestTraitsMatchesRangeReference(t *testing.T) {
	// gather reads atom positions of size bytes in a scattered order
	// over 2^17 atoms, then streams them.
	gather := func(size uint64) func(touch func(uint64)) {
		return func(touch func(uint64)) {
			s := uint64(3)
			for i := 0; i < 1<<17; i++ {
				s = s*6364136223846793005 + 1442695040888963407
				touch(s >> 47 * size)
			}
			for j := uint64(0); j < 1<<17; j++ {
				touch(j * size)
			}
		}
	}
	// lineEnds ends each access b bytes past a line end, for every b
	// from 0 to size, over lines spread across every set.
	lineEnds := func(size uint64) func(touch func(uint64)) {
		return func(touch func(uint64)) {
			for l := uint64(1); l < 1<<14; l++ {
				for b := uint64(0); b <= size; b++ {
					touch(l*64*97 + 64 + b - size)
				}
			}
		}
	}
	for _, dev := range []*device.Device{device.A10_7850K(), device.R9280X()} {
		for _, tc := range []struct {
			name  string
			size  int
			trace func(touch func(uint64))
		}{
			{"comd-single", 12, gather(12)},
			{"comd-double", 24, gather(24)},
			{"ends-8", 8, lineEnds(8)},
			{"ends-12", 12, lineEnds(12)},
			{"ends-24", 24, lineEnds(24)},
			{"ends-64", 64, lineEnds(64)},
			{"ends-100", 100, lineEnds(100)},
			{"scattered-8", 8, scattered(1 << 16)},
		} {
			t.Run(dev.Name+"/"+tc.name, func(t *testing.T) {
				miss, coal, acc := Traits(dev, tc.size, tc.trace)
				wmiss, wcoal, wacc := rangeTraits(dev, tc.size, tc.trace)
				if math.Float64bits(miss) != math.Float64bits(wmiss) || math.Float64bits(coal) != math.Float64bits(wcoal) || math.Float64bits(acc) != math.Float64bits(wacc) {
					t.Errorf("traits (%v, %v, %v), AccessRange reference (%v, %v, %v)", miss, coal, acc, wmiss, wcoal, wacc)
				}
			})
		}
	}
}

func TestQuickTraitsBounds(t *testing.T) {
	dev := device.A10_7850K()
	f := func(seed int64, n uint8) bool {
		miss, coal, acc := Traits(dev, 8, func(touch func(uint64)) {
			s := uint64(seed)
			for i := 0; i <= int(n); i++ {
				s = s*6364136223846793005 + 1
				touch(s % (1 << 26))
			}
		})
		return miss >= 0 && miss <= 1 && coal > 0 && coal <= 1 && acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestResultHelpers(t *testing.T) {
	base := Result{App: "x", Model: modelapi.OpenMP, ElapsedNs: 100}
	r := Result{App: "x", Model: modelapi.OpenCL, Machine: "m", ElapsedNs: 25, KernelNs: 20, TransferNs: 5, Checksum: 7}
	if got := r.SpeedupOver(base); got != 4 {
		t.Errorf("speedup = %g, want 4", got)
	}
	if got := (Result{}).SpeedupOver(base); got != 0 {
		t.Errorf("degenerate speedup = %g, want 0", got)
	}
	s := r.String()
	for _, want := range []string{"x", "OpenCL", "checksum"} {
		if !containsFold(s, want) {
			t.Errorf("Result.String() missing %q: %s", want, s)
		}
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if a >= 'A' && a <= 'Z' {
				a += 32
			}
			if b >= 'A' && b <= 'Z' {
				b += 32
			}
			if a != b {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestStreams(t *testing.T) {
	if got := Streams(device.R9280X()); got != 256 {
		t.Errorf("Streams(R9 280X) = %d, want 256 (32 CU × 8)", got)
	}
	if got := Streams(device.A10_7850K()); got != 64 {
		t.Errorf("Streams(APU) = %d, want 64", got)
	}
}

// Memos on one characterization table share its characterizations and
// nothing else; a memo built without a table gets one of its own, and a
// nil memo computes every time.
func TestCharacterizeSharesTableAcrossMemos(t *testing.T) {
	calls := 0
	count := func() int { calls++; return calls }
	traits := new(Characterizations)
	a, b := NewMemo(traits), NewMemo(traits)
	if Characterize(a, "k", count) != 1 || Characterize(b, "k", count) != 1 || calls != 1 {
		t.Errorf("two memos on one table measured %d times, want once", calls)
	}
	Memoize(a, "k", count)
	Memoize(b, "k", count)
	if calls != 3 {
		t.Errorf("two memos on one table shared a run entry (%d computes, want 3)", calls)
	}
	if traits.Len() != 1 || a.Len() != 2 {
		t.Errorf("table holds %d, memo %d entries; want 1 and 2", traits.Len(), a.Len())
	}
	own := NewMemo(nil)
	Characterize(own, "k", count)
	Characterize(own, "k", count)
	if calls != 4 || own.Len() != 1 || traits.Len() != 1 {
		t.Errorf("a memo without a table: %d computes, %d entries, shared table %d; want 4, 1, 1", calls, own.Len(), traits.Len())
	}
	Characterize(nil, "k", count)
	Characterize(nil, "k", count)
	if calls != 6 {
		t.Errorf("a nil memo computed %d times, want 2", calls-4)
	}
}
