package obs

import "sync"

// TraceRing retains the most recent finished traces so /debug/trace/{id}
// can serve the full span tree of a slowlog entry even when no collector
// is configured. It is a fixed-size overwrite ring: eviction is strictly
// oldest-first, and lookup is a linear scan (the ring is small — hundreds
// of entries — and lookups are operator-driven, not on the query path).
type TraceRing struct {
	mu   sync.Mutex
	ring []FinishedTrace
	next uint64 // total traces ever added; next % cap is the write slot
}

// NewTraceRing builds a ring holding the last capacity traces (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{ring: make([]FinishedTrace, 0, capacity)}
}

// Add retains a finished trace, evicting the oldest when full.
func (r *TraceRing) Add(ft FinishedTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ft)
	} else {
		r.ring[r.next%uint64(cap(r.ring))] = ft
	}
	r.next++
}

// Get returns the retained trace with the given ID, if still present.
func (r *TraceRing) Get(id TraceID) (FinishedTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Scan newest-first so a (theoretical) ID collision resolves to the
	// most recent trace.
	for i := 0; i < len(r.ring); i++ {
		idx := (r.next - 1 - uint64(i)) % uint64(cap(r.ring))
		if r.ring[idx].ID == id {
			return r.ring[idx], true
		}
	}
	return FinishedTrace{}, false
}

// Len returns how many traces are retained (≤ capacity).
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}
