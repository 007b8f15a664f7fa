// Package memo provides Map, a concurrency-safe map that computes each
// key's value once. A run hangs one on its context so runner cells that
// need the same pure result (an app's cache characterization on a device,
// say) share one computation instead of repeating it.
package memo

import "sync"

// Map computes each key's value at most once. Concurrent Gets of a key
// that is still being computed wait for that computation instead of
// starting their own. The zero value is ready to use; a nil *Map caches
// nothing and calls compute on every Get.
//
// Values are handed to every caller as they are, so they must be
// immutable (or copied on read by the caller).
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

type entry[V any] struct {
	once     sync.Once
	v        V
	panicked any
}

// Get returns the value for k, calling compute to produce it if no earlier
// Get of k has. If compute panics, that Get and every later Get of k
// panic with the same value.
func (c *Map[K, V]) Get(k K, compute func() V) V {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		if c.m == nil {
			c.m = make(map[K]*entry[V])
		}
		e = &entry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.panicked = r
			}
		}()
		e.v = compute()
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.v
}

// Len reports how many keys have been requested.
func (c *Map[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
