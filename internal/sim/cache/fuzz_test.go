package cache

import (
	"encoding/binary"
	"testing"
)

// fuzzGeometry maps two fuzz bytes onto a valid cache geometry so the fuzzer
// explores different set counts and associativities, not just addresses.
func fuzzGeometry(g1, g2 byte) Config {
	lineBytes := 16 << (g1 % 4) // 16..128
	ways := 1 + int(g2%8)       // 1..8
	sets := 1 + int(g1/4)%96    // includes non-power-of-two set counts
	return Config{
		SizeBytes: sets * ways * lineBytes,
		LineBytes: lineBytes,
		Ways:      ways,
	}
}

// FuzzCacheAccess replays an arbitrary byte string as an address/size trace
// against a fuzz-chosen geometry and checks the simulator's invariants:
// stats always balance, an immediate re-access of a just-touched address
// hits, AccessRange's miss count stays within the range's line count, and
// a fresh cache replaying the trace again counts the same.
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{7, 255, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2})
	f.Add([]byte{128, 33, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 64})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := fuzzGeometry(data[0], data[1])
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzGeometry produced invalid %+v: %v", cfg, err)
		}
		replay := func(c *Cache) {
			for rest := data[2:]; len(rest) >= 9; rest = rest[9:] {
				addr := binary.LittleEndian.Uint64(rest)
				size := int(rest[8])
				if size == 0 {
					c.Access(addr)
					if !c.Access(addr) {
						t.Fatalf("re-access of %#x missed immediately after touch", addr)
					}
					continue
				}
				// Cap addr so addr+size cannot wrap uint64.
				addr %= 1 << 48
				misses := c.AccessRange(addr, size)
				lines := int((addr+uint64(size)-1)>>c.lineShift-addr>>c.lineShift) + 1
				if misses < 0 || misses > lines {
					t.Fatalf("AccessRange(%#x, %d) = %d misses over %d lines", addr, size, misses, lines)
				}
			}
		}
		c := New(cfg)
		replay(c)
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

		// A fresh cache replaying the same trace starts cold and lands on
		// the same counts.
		fresh := New(cfg)
		replay(fresh)
		if fresh.Stats() != s {
			t.Fatalf("fresh replay stats %+v, first replay %+v", fresh.Stats(), s)
		}
	})
}
