// Fixture for the atomicconsistency check: objects touched through
// sync/atomic must never be read or written plainly.
package atomicconsistency

import "sync/atomic"

type stats struct {
	hits  uint64
	total atomic.Uint64
	name  string
}

var global int64

// add uses the atomic functions — the access that puts s.hits and global
// into the atomically-accessed set.
func add(s *stats) {
	atomic.AddUint64(&s.hits, 1)
	atomic.AddInt64(&global, 1)
}

// goodLoad stays on the atomic side everywhere.
func goodLoad(s *stats) uint64 {
	return atomic.LoadUint64(&s.hits) + s.total.Load()
}

// badPlainRead tears against concurrent add calls.
func badPlainRead(s *stats) uint64 {
	return s.hits // want `hits is accessed with sync/atomic elsewhere`
}

// badPlainWrite is the write-side tear.
func badPlainWrite(s *stats) {
	s.hits = 0 // want `hits is accessed with sync/atomic elsewhere`
}

// badGlobal covers package-level variables, not just fields.
func badGlobal() int64 {
	return global // want `global is accessed with sync/atomic elsewhere`
}

// goodInit initializes via a composite-literal key, which happens before
// the value is shared and is exempt.
func goodInit() *stats {
	return &stats{hits: 0, name: "fresh"}
}

// goodUnrelated shows plainly-used fields stay unflagged.
func goodUnrelated(s *stats) string {
	return s.name
}
