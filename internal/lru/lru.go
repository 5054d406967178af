// Package lru is a bounded least-recently-used cache, safe for concurrent
// use, that counts its hits and misses. The server's plan cache and the
// shard coordinator's decomposition cache are both one.
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache maps string keys to values, evicting the least recently used entry
// once it holds more than its capacity. A capacity ≤ 0 disables it: every
// Get misses and Put keeps nothing.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding up to capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value under key and marks it most recently used; every
// call counts one hit or one miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	if c.cap > 0 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits.Add(1)
			return el.Value.(*entry[V]).val, true
		}
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Contains reports whether key is held. Unlike Get it counts no hit or
// miss and leaves the recency order alone, so a caller may ask before the
// Get that serves the request without counting that request twice.
func (c *Cache[V]) Contains(key string) bool {
	if c.cap <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put stores val under key as the most recently used entry, replacing any
// value already there, and evicts the least recently used beyond capacity.
func (c *Cache[V]) Put(key string, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
}

// Delete removes key, if held.
func (c *Cache[V]) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// DeleteFunc removes every entry whose key drop reports true for, calling
// drop under the cache's lock.
func (c *Cache[V]) DeleteFunc(drop func(key string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if key := el.Value.(*entry[V]).key; drop(key) {
			c.ll.Remove(el)
			delete(c.items, key)
		}
		el = next
	}
}

// Len returns the number of entries held.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Hits returns how many Gets found their key.
func (c *Cache[V]) Hits() uint64 { return c.hits.Load() }

// Misses returns how many Gets did not.
func (c *Cache[V]) Misses() uint64 { return c.misses.Load() }

// Outcome names a Get's result in logs, spans and replies.
func Outcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
