// Fixture for the mutexdiscipline check: every Lock released on every
// path, no double locking.
package mutexdiscipline

import (
	"errors"
	"sync"
)

var errFail = errors.New("fail")

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// goodDefer is the canonical pattern.
func goodDefer(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// goodExplicit releases before every exit without defer.
func goodExplicit(b *box) int {
	b.mu.Lock()
	n := b.n
	b.mu.Unlock()
	return n
}

// goodEarlyReturn unlocks on the error path and the happy path.
func goodEarlyReturn(b *box, fail bool) error {
	b.mu.Lock()
	if fail {
		b.mu.Unlock()
		return errFail
	}
	b.n++
	b.mu.Unlock()
	return nil
}

// badLeakOnReturn forgets the error path.
func badLeakOnReturn(b *box, fail bool) error {
	b.mu.Lock() // want `b.mu is still locked at the return on line \d+`
	if fail {
		return errFail
	}
	b.mu.Unlock()
	return nil
}

// badNeverUnlocks holds the lock past the end of the function.
func badNeverUnlocks(b *box) {
	b.mu.Lock() // want `b.mu is still locked at end of function`
	b.n++
}

// badDoubleLock self-deadlocks.
func badDoubleLock(b *box) {
	b.mu.Lock()
	b.mu.Lock() // want `b.mu is locked again while already held`
	b.n++
	b.mu.Unlock()
	b.mu.Unlock()
}

// badReaderLeak covers the RLock/RUnlock pair separately.
func badReaderLeak(b *box) int {
	b.rw.RLock() // want `b.rw is still locked at the return on line \d+`
	return b.n
}

// goodReader pairs the reader half correctly.
func goodReader(b *box) int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.n
}

// goodClosureDefer releases through a deferred closure.
func goodClosureDefer(b *box) int {
	b.mu.Lock()
	defer func() {
		b.mu.Unlock()
	}()
	return b.n
}

// badReturnBeforeDefer: a defer further down does not cover a return
// that runs before it.
func badReturnBeforeDefer(b *box, closed bool) int {
	b.mu.Lock() // want `b.mu is still locked at the return on line \d+`
	if closed {
		return 0
	}
	defer b.mu.Unlock()
	return b.n
}
