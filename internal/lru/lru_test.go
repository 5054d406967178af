package lru

import (
	"strconv"
	"sync"
	"testing"
)

// TestEvictionOrder pins the full recency semantics, not just "something
// gets evicted": gets refresh recency, overwriting puts refresh recency,
// and evictions strike in exact least-recently-used order, key by key.
func TestEvictionOrder(t *testing.T) {
	c := New[int](4)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	// Recency, most→least recent: d c b a. Touch a (get) and b (overwrite
	// put): b a d c.
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("a = %v, %v; want 0, true", v, ok)
	}
	c.Put("b", 1)

	// Push fresh keys one at a time; evictions must strike c, d, a, b.
	for i, victim := range []string{"c", "d", "a", "b"} {
		newKey := "n" + strconv.Itoa(i)
		c.Put(newKey, 10+i)
		if _, ok := c.Get(victim); ok {
			t.Fatalf("after inserting %s, %s should have been evicted", newKey, victim)
		}
		if c.Len() != 4 {
			t.Fatalf("len = %d, want 4", c.Len())
		}
	}
	for i := 0; i < 4; i++ {
		if v, ok := c.Get("n" + strconv.Itoa(i)); !ok || v != 10+i {
			t.Fatalf("n%d = %v, %v; want %d, true", i, v, ok, 10+i)
		}
	}
	// 1 + 4 + 4 gets found their key; the 4 victims did not.
	if c.Hits() != 5 || c.Misses() != 4 {
		t.Fatalf("hits=%d misses=%d, want 5/4", c.Hits(), c.Misses())
	}
}

// TestOverwriteKeepsSingleEntry guards against an overwrite creating a
// duplicate list element whose stale twin would corrupt eviction order.
func TestOverwriteKeepsSingleEntry(t *testing.T) {
	c := New[string](2)
	c.Put("k", "old")
	c.Put("k", "new")
	if c.Len() != 1 {
		t.Fatalf("len = %d after overwrite, want 1", c.Len())
	}
	if v, ok := c.Get("k"); !ok || v != "new" {
		t.Fatalf("k = %q, %v; overwrite must replace the value", v, ok)
	}
}

// TestDisabled: a capacity ≤ 0 stores nothing and counts every get a miss.
func TestDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[int](capacity)
		c.Put("a", 1)
		if _, ok := c.Get("a"); ok {
			t.Fatalf("capacity %d: disabled cache must always miss", capacity)
		}
		if c.Len() != 0 || c.Hits() != 0 || c.Misses() != 1 {
			t.Fatalf("capacity %d: len=%d hits=%d misses=%d", capacity, c.Len(), c.Hits(), c.Misses())
		}
	}
}

// TestConcurrentAccounting hammers the cache from many goroutines
// (meaningful under -race) and checks what must survive any interleaving:
// capacity is never exceeded and every get moved exactly one counter.
func TestConcurrentAccounting(t *testing.T) {
	const (
		workers  = 8
		iters    = 500
		capacity = 8
	)
	c := New[int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := "k" + strconv.Itoa((w+i)%(2*capacity))
				if _, ok := c.Get(key); !ok {
					c.Put(key, i)
				}
				if i%64 == 0 {
					_ = c.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > capacity {
		t.Fatalf("cache exceeded capacity: %d > %d", c.Len(), capacity)
	}
	if gets := c.Hits() + c.Misses(); gets != workers*iters {
		t.Fatalf("hits+misses = %d, want %d (every get moves exactly one counter)", gets, workers*iters)
	}
}
