// Package lru is the one bounded least-recently-used map in the repo: the
// service's magic-rewrite cache and the planner's plan cache are instances
// of it.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded LRU map from K to V, safe for concurrent use.
// Values are handed out as stored, so callers cache only what they treat
// as immutable. The zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *entry[K, V]
	entries map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most capacity entries (at least one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity, order: list.New(), entries: map[K]*list.Element{}}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k, evicting the least recently used entry when the
// cache is full. Storing an existing key replaces its value and refreshes it.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for c.order.Len() > c.cap {
		delete(c.entries, c.order.Remove(c.order.Back()).(*entry[K, V]).key)
	}
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the capacity the cache was built with.
func (c *Cache[K, V]) Cap() int { return c.cap }
