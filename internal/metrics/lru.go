package metrics

import (
	"container/list"
	"sync"
)

// LRU is the one bounded least-recently-used map of the harness (the
// result store's record cache, the trace store's index). Get and Put
// both count as a use; Put past the capacity evicts the least recently
// used entry and hands its key back, so an owner with state outside the
// map (a file per entry, an eviction counter) can release it. The LRU
// keeps its own mutex, so a reader never waits behind a lock its owner
// holds around slow work such as an fsync. All methods are safe for
// concurrent use.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty LRU holding at most capacity (≥ 1) entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity, order: list.New(), items: make(map[K]*list.Element, capacity)}
}

// Get returns the value under k and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores v under k as the most recently used entry. When that pushes
// the LRU past its capacity, the least recently used entry is dropped
// and its key returned with evicted true; refreshing a held key never
// evicts.
func (c *LRU[K, V]) Put(k K, v V) (old K, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.order.MoveToFront(el)
		return old, false
	}
	c.items[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	if c.order.Len() <= c.cap {
		return old, false
	}
	old = c.order.Remove(c.order.Back()).(*lruEntry[K, V]).key
	delete(c.items, old)
	return old, true
}

// Remove drops k, if held.
func (c *LRU[K, V]) Remove(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.Remove(el)
		delete(c.items, k)
	}
}

// Len reports the number of held entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
