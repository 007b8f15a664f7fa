// Package spanleak is the fixture for hetlint's span-balance analyzer:
// every Start* span must reach End on all control-flow paths.
package spanleak

import (
	"errors"
	"sync"

	"hetbench/internal/analysis/testdata/src/sim"
)

var errEarly = errors.New("early")

func work() {}

func tooHot(i int) bool { return i > 3 }

func discarded(m *sim.Machine) {
	m.StartSpan("phase") // want `result of StartSpan discarded`
}

func blank(m *sim.Machine) {
	_ = m.StartRun("app") // want `result of StartRun discarded`
}

func deferred(m *sim.Machine) {
	sp := m.StartSpan("phase")
	defer sp.End()
	work()
}

func straightLine(m *sim.Machine) {
	sp := m.StartSpan("phase")
	work()
	sp.End()
}

func leakOnError(m *sim.Machine, fail bool) error {
	sp := m.StartSpan("phase") // want `span sp from StartSpan is not closed on every path`
	if fail {
		return errEarly
	}
	sp.End()
	return nil
}

func endsInBothBranches(m *sim.Machine, cond bool) {
	sp := m.StartSpan("phase")
	if cond {
		sp.End()
	} else {
		work()
		sp.End()
	}
}

func perIteration(m *sim.Machine, n int) {
	for i := 0; i < n; i++ {
		it := m.StartIteration(i)
		work()
		it.End()
	}
}

func leakOnBreak(m *sim.Machine, n int) {
	for i := 0; i < n; i++ {
		it := m.StartIteration(i) // want `span it from StartIteration is not closed on every path`
		if tooHot(i) {
			break
		}
		it.End()
	}
}

func ifInitLeak(m *sim.Machine, cond bool) {
	if sp := m.StartSpan("phase"); cond { // want `span sp from StartSpan is not closed on every path`
		sp.End()
	}
}

func ifInitBoth(m *sim.Machine, cond bool) {
	if sp := m.StartSpan("phase"); cond {
		sp.End()
	} else {
		sp.End()
	}
}

// panicPath is exempt: a crashing run has no trace to balance.
func panicPath(m *sim.Machine, ok bool) {
	sp := m.StartSpan("phase")
	if !ok {
		panic("bad input")
	}
	sp.End()
}

// allowedLeak carries a suppression: no finding, directive used.
func allowedLeak(m *sim.Machine, fail bool) {
	sp := m.StartSpan("phase") //hetlint:allow spanleak fixture exercises the suppression path
	if fail {
		return
	}
	sp.End()
}

// unscopedLock leaks a mutex on the early return, but this package is
// outside the mutex row's service/fleet scope: no finding.
func unscopedLock(mu *sync.Mutex, fail bool) {
	mu.Lock()
	if fail {
		return
	}
	mu.Unlock()
}
