// Package seedflow is the fixture for the interprocedural seed rule of
// hetlint's determinism pass: PRNG seeds and fault.SubSeed parents must
// flow from SubSeed, seed-named sources, or seed parameters — and a
// blessing that rests on a parameter moves the obligation to every
// in-package caller.
package seedflow

import (
	"math/rand"
	"time"

	"hetbench/internal/analysis/testdata/src/fault"
)

type config struct {
	Seed int64
}

func clockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `NewSource seed derives from the wall clock \(time.Now\)` `time.Now reads the wall clock`
}

func literalSeed() rand.Source {
	return rand.NewSource(42) // want `NewSource seed is the ad-hoc literal 42`
}

func flowedSeed(cfg config) rand.Source {
	return rand.NewSource(fault.SubSeed(cfg.Seed, 1)) // good: derived from a seed-named field
}

func localChain(cfg config) rand.Source {
	seed := cfg.Seed
	return rand.NewSource(seed) // good: local traced to a seed-named field
}

func localLiteral() rand.Source {
	n := int64(99)
	return rand.NewSource(n) // want `NewSource seed is the ad-hoc literal 99`
}

func badParent() int64 {
	return fault.SubSeed(7, 1) // want `fault.SubSeed parent is the ad-hoc literal 7`
}

func chainedParent(cfg config) int64 {
	return fault.SubSeed(fault.SubSeed(cfg.Seed, 2), 3) // good: SubSeed of SubSeed
}

func drawnSeed(rng *rand.Rand) rand.Source {
	return rand.NewSource(rng.Int63()) // want `NewSource seed derives from a PRNG draw`
}

// mk is innocent: the seed is a parameter, so every caller below owes a
// flowed seed at its call site.
func mk(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func goodCaller(cfg config) *rand.Rand {
	return mk(fault.SubSeed(cfg.Seed, 4)) // good: flowed at the call site
}

func clockCaller() *rand.Rand {
	return mk(time.Now().UnixNano()) // want `seed parameter "seed" of mk derives from the wall clock \(time.Now\)` `time.Now reads the wall clock`
}

func literalCaller() *rand.Rand {
	return mk(1234) // want `seed parameter "seed" of mk is the ad-hoc literal 1234`
}

// wrap forwards its parameter into mk, so the obligation propagates one
// hop further: wrap's callers owe a flowed seed too.
func wrap(s int64) *rand.Rand {
	return mk(s)
}

func deepClean(cfg config) *rand.Rand {
	return wrap(fault.SubSeed(cfg.Seed, 5)) // good: two-hop flow
}

func deepDirty() *rand.Rand {
	return wrap(rand.Int63()) // want `seed parameter "s" of wrap derives from the global math/rand source \(rand.Int63\)` `rand.Int63 draws from the global math/rand source`
}
