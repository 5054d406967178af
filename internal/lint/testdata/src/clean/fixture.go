// Fixture with no findings: the end-to-end driver test proves cscelint
// exits zero on it with every check enabled.
package clean

import (
	"sync"
	"sync/atomic"
)

type counters struct {
	mu     sync.Mutex
	byName map[string]uint64
	total  atomic.Uint64
}

// Bump updates both the locked map and the atomic total correctly.
func (c *counters) Bump(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byName == nil {
		c.byName = make(map[string]uint64)
	}
	c.byName[name]++
	c.total.Add(1)
}

// Total reads through the atomic's method.
func (c *counters) Total() uint64 { return c.total.Load() }
