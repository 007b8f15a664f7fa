package service

import (
	"container/list"
	"sync"

	"hetbench/internal/trace"
)

// resultCache is a byte-bounded LRU over completed clean results. The
// determinism contract makes entries immortal in principle (same key ⇒
// same bytes, forever), so eviction is purely about space: least
// recently used goes first once stored output exceeds the budget.
//
// Outputs are stored by content: keys whose runs rendered the same bytes
// (a seed-independent experiment at two seeds, say) share one copy, and
// the budget is charged for it once.
type resultCache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	ll      *list.List // front = most recently used; values are *cacheEntry
	items   map[string]*list.Element
	outputs map[string]*storedOutput // keyed by the output itself
	reg     *trace.Registry
}

type cacheEntry struct {
	key string
	res *Result
}

// storedOutput is one distinct output and the number of entries whose
// Result holds it.
type storedOutput struct {
	s    string
	refs int
}

// entryOverhead approximates per-entry bookkeeping (key copies, list
// element, map slot) so tiny outputs still consume budget.
const entryOverhead = 256

func newResultCache(max int64, reg *trace.Registry) *resultCache {
	return &resultCache{
		max:     max,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		outputs: make(map[string]*storedOutput),
		reg:     reg,
	}
}

// get returns the cached result and marks it recently used. Callers must
// not mutate the returned Result; Do hands out copies.
func (c *resultCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores a clean result, evicting LRU entries to fit. A result
// larger than the whole budget is simply not cached. An output the cache
// already holds costs only the entry's overhead, and res is pointed at
// the stored copy, so the run's own bytes can be collected.
func (c *resultCache) put(key string, res *Result) {
	if int64(len(res.Output))+entryOverhead > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Same key ⇒ same bytes by the determinism contract; just refresh.
		c.ll.MoveToFront(el)
		return
	}
	for c.size+c.cost(res.Output) > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.evict(back)
	}
	c.size += c.cost(res.Output)
	out := c.outputs[res.Output]
	if out == nil {
		out = &storedOutput{s: res.Output}
		c.outputs[res.Output] = out
	}
	out.refs++
	res.Output = out.s
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
}

// cost is the budget a new entry with output takes: its overhead, plus
// the output's bytes unless the cache already holds them.
func (c *resultCache) cost(output string) int64 {
	if _, ok := c.outputs[output]; ok {
		return entryOverhead
	}
	return int64(len(output)) + entryOverhead
}

// evict drops el's entry, and its output once no entry holds it.
func (c *resultCache) evict(el *list.Element) {
	ev := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ev.key)
	c.size -= entryOverhead
	out := c.outputs[ev.res.Output]
	if out.refs--; out.refs == 0 {
		delete(c.outputs, ev.res.Output)
		c.size -= int64(len(ev.res.Output))
	}
	c.reg.Add(trace.CtrServiceCacheEvictions, 1)
}

// Len reports the number of cached results (tests and /metricz).
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
