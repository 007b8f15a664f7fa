// Package lockbalance is the fixture for the mutex row of hetlint's
// acquire/release pass: a Lock/RLock must reach its matching Unlock/RUnlock
// on every control-flow path out of the acquiring function.
package lockbalance

import "sync"

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	m  map[string]int
}

func (s *store) goodDefer(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

func (s *store) goodExplicit(k string) (int, bool) {
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

func (s *store) goodBranches(k string) int {
	s.mu.Lock()
	v, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		return 0
	}
	s.mu.Unlock()
	return v
}

func (s *store) leakyReturn(k string) (int, bool) {
	s.mu.Lock() // want `s.mu.Lock\(\) does not reach s.mu.Unlock\(\) on every path`
	v, ok := s.m[k]
	if !ok {
		return 0, false
	}
	s.mu.Unlock()
	return v, true
}

func (s *store) goodRead(k string) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.m[k]
}

func (s *store) leakyRead(k string) int {
	s.rw.RLock() // want `s.rw.RLock\(\) does not reach s.rw.RUnlock\(\) on every path`
	if v, ok := s.m[k]; ok {
		return v
	}
	s.rw.RUnlock()
	return 0
}

func (s *store) wrongUnlock(k string) int {
	s.rw.Lock() // want `s.rw.Lock\(\) does not reach s.rw.Unlock\(\) on every path`
	v := s.m[k]
	s.rw.RUnlock()
	return v
}

// panicPath is exempt on the panicking branch: the invariant is moot on
// a crash, and the surviving path unlocks.
func (s *store) panicPath(k string) int {
	s.mu.Lock()
	v, ok := s.m[k]
	if !ok {
		panic("missing")
	}
	s.mu.Unlock()
	return v
}

// lockedAccessor releases on both arms through a helper-free explicit
// pattern mirroring service.Close.
func (s *store) lockedAccessor(keys []string) int {
	total := 0
	s.mu.Lock()
	for _, k := range keys {
		total += s.m[k]
	}
	s.mu.Unlock()
	return total
}
