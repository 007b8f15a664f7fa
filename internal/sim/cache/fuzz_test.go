package cache

import (
	"encoding/binary"
	"testing"
)

// fuzzGeometry maps two fuzz bytes onto a valid cache geometry so the fuzzer
// explores different set counts and associativities, not just addresses:
// g1 picks the line size and a base set count, g2 the ways and a
// power-of-two set multiplier (1..16), which reaches the dGPU's 768 sets.
func fuzzGeometry(g1, g2 byte) Config {
	lineBytes := 16 << (g1 % 4)                 // 16..128
	ways := 1 + int(g2%16)                      // 1..16
	sets := (1 + int(g1/4)) << (int(g2/16) % 5) // 1..1024, includes non-powers of two
	return Config{
		SizeBytes: sets * ways * lineBytes,
		LineBytes: lineBytes,
		Ways:      ways,
	}
}

// refCache is the stamp-scan reference: an LRU cache written the plain
// way, one record per way with a valid flag and a last-use stamp, set
// index and tag split off the line address by 64-bit modulo and divide,
// victim = an invalid way if any, else the oldest stamp.
// FuzzCacheAccess and TestMatchesReferenceOnAppTraces hold Cache to it
// access by access.
type refCache struct {
	sets, ways int
	lineShift  uint
	lines      []refLine
	clock      uint64
	stats      Stats
}

type refLine struct {
	tag, stamp uint64
	valid      bool
}

func newRef(c *Cache) *refCache {
	return &refCache{sets: c.sets, ways: c.cfg.Ways, lineShift: c.lineShift, lines: make([]refLine, c.sets*c.cfg.Ways)}
}

func (c *refCache) access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	lineAddr := addr >> c.lineShift
	set, tag := int(lineAddr%uint64(c.sets)), lineAddr/uint64(c.sets)
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	victim := 0
	var victimStamp uint64 = ^uint64(0)
	for i := range ways {
		w := &ways[i]
		if w.valid && w.tag == tag {
			w.stamp = c.clock
			c.stats.Hits++
			return true
		}
		if !w.valid {
			if victimStamp != 0 || !ways[victim].valid {
				victim, victimStamp = i, 0
			}
		} else if w.stamp < victimStamp {
			victim, victimStamp = i, w.stamp
		}
	}
	c.stats.Misses++
	if ways[victim].valid {
		c.stats.Evictions++
	}
	ways[victim] = refLine{tag: tag, stamp: c.clock, valid: true}
	return false
}

// touches encodes a FuzzCacheAccess input: the geometry bytes, then one
// single-address record per address.
func touches(g1, g2 byte, addrs ...uint64) []byte {
	data := []byte{g1, g2}
	for _, a := range addrs {
		data = append(binary.LittleEndian.AppendUint64(data, a), 0)
	}
	return data
}

// FuzzCacheAccess replays an arbitrary byte string as an address/size trace
// against a fuzz-chosen geometry. Each record touches one address (twice:
// an immediate re-access must hit) or, with a nonzero size, every line of
// a range, one Access per line. Every access must hit or miss exactly as
// the reference LRU does, with equal Stats after each record. A fresh
// cache replaying the ranges through AccessRange must then land on the
// same Stats, each range's misses within its line count.
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{7, 255, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2})
	f.Add([]byte{128, 33, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 64})
	// The dGPU L2 (768 sets × 16 ways × 64 B) at line addresses ≥ 2^32,
	// where the set index takes the 64-bit modulo: 17 lines of one set,
	// twice round, thrash it. Their low 32 bits spread them over three
	// sets, so an index that truncated them would hit.
	var high []uint64
	for pass := 0; pass < 2; pass++ {
		for k := uint64(1); k <= 17; k++ {
			high = append(high, (k<<32+(5+768*k-256*k%768)%768)<<6)
		}
	}
	f.Add(touches(190, 79, high...))
	// A single set of 16 ways: 17 lines twice round miss every time
	// under LRU.
	var single []uint64
	for pass := 0; pass < 2; pass++ {
		for l := uint64(0); l <= 16; l++ {
			single = append(single, l<<6)
		}
	}
	f.Add(touches(2, 15, single...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := fuzzGeometry(data[0], data[1])
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzGeometry produced invalid %+v: %v", cfg, err)
		}
		// records yields each (addr, size) record; a range's addr is
		// capped so addr+size cannot wrap uint64.
		records := func(yield func(addr uint64, size int)) {
			for rest := data[2:]; len(rest) >= 9; rest = rest[9:] {
				addr, size := binary.LittleEndian.Uint64(rest), int(rest[8])
				if size != 0 {
					addr %= 1 << 48
				}
				yield(addr, size)
			}
		}

		c := New(cfg)
		ref := newRef(c)
		check := func(addr uint64) {
			if got, want := c.Access(addr), ref.access(addr); got != want {
				t.Fatalf("%+v: Access(%#x) hit=%v, reference hit=%v", cfg, addr, got, want)
			}
		}
		records(func(addr uint64, size int) {
			if size == 0 {
				check(addr)
				if !c.Access(addr) || !ref.access(addr) {
					t.Fatalf("re-access of %#x missed immediately after touch", addr)
				}
			} else {
				for l := addr >> c.lineShift; l <= (addr+uint64(size)-1)>>c.lineShift; l++ {
					check(l << c.lineShift)
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("%+v: stats %+v, reference %+v", cfg, c.Stats(), ref.stats)
			}
		})
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			t.Fatalf("stats do not balance: %+v", s)
		}
		if s.Evictions > s.Misses {
			t.Fatalf("more evictions than misses: %+v", s)
		}
		if r := s.MissRate(); r < 0 || r > 1 {
			t.Fatalf("miss rate %g out of [0,1]", r)
		}

		// A fresh cache starts cold and, touching ranges through
		// AccessRange, lands on the same counts.
		fresh := New(cfg)
		records(func(addr uint64, size int) {
			if size == 0 {
				fresh.Access(addr)
				fresh.Access(addr)
				return
			}
			misses := fresh.AccessRange(addr, size)
			lines := int((addr+uint64(size)-1)>>c.lineShift-addr>>c.lineShift) + 1
			if misses < 0 || misses > lines {
				t.Fatalf("AccessRange(%#x, %d) = %d misses over %d lines", addr, size, misses, lines)
			}
		})
		if fresh.Stats() != s {
			t.Fatalf("fresh replay stats %+v, first replay %+v", fresh.Stats(), s)
		}
	})
}
