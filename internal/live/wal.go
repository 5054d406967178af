package live

import "sync"

// Record is one committed WAL entry.
type Record struct {
	// Seq is the per-graph sequence number, 1-based and gapless across
	// committed mutations (aborted batches are never logged).
	Seq uint64
	// Epoch is the snapshot epoch the entry became visible in; every entry
	// of a batch shares it.
	Epoch uint64
	Mut   Mutation
}

// wal is the append-only in-memory log. It has its own lock so readers of
// the tail (stats, debugging) never contend with the graph writer lock,
// but appends only happen under the writer lock, which keeps sequence
// numbers aligned with commit order.
type wal struct {
	mu        sync.Mutex
	recs      []Record
	nextSeq   uint64 // next sequence number to assign; first is 1
	truncated uint64 // entries dropped by retention
	retention int
}

// newWAL starts a log whose numbering continues after lastSeq (0 for a
// fresh graph): the window is empty and its resumable-from watermark sits
// at lastSeq, where the caller's resume base is.
func newWAL(retention int, lastSeq uint64) *wal {
	return &wal{nextSeq: lastSeq + 1, truncated: lastSeq, retention: retention}
}

// peekNextSeq returns the sequence number the next committed record will
// receive. Only meaningful under the graph writer lock, which serializes
// all appends.
func (w *wal) peekNextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// appendRecords logs a committed batch whose Seq fields were pre-assigned
// from peekNextSeq (the durable WAL needs finished records before the
// in-memory tail may admit them). It returns the records retention pushed
// out, oldest first, so the caller can roll its resume base forward; the
// slice aliases the log's backing array and must not be modified.
//
//csce:hotpath under the writer lock on every commit: amortized append only
func (w *wal) appendRecords(recs []Record) (dropped []Record) {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recs = append(w.recs, recs...)
	w.nextSeq = recs[len(recs)-1].Seq + 1
	if over := len(w.recs) - w.retention; over > 0 {
		// Reslicing leaves the dropped prefix in the backing array until
		// append's next growth copies the window out (at most about one
		// retention's worth of dead records), which keeps every append —
		// recovery feeds the log through here record by record — O(1)
		// amortized instead of copying the whole window.
		dropped = w.recs[:over]
		w.truncated += uint64(over)
		w.recs = w.recs[over:]
	}
	return dropped
}

// lastSeq returns the most recently assigned sequence number (0 if none).
func (w *wal) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// tail returns a copy of the retained records with Seq > after.
func (w *wal) tail(after uint64) []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := 0
	for i < len(w.recs) && w.recs[i].Seq <= after {
		i++
	}
	return append([]Record(nil), w.recs[i:]...)
}

// oldestResumable returns the smallest seq a subscriber may resume from:
// the resume base sits at exactly this state, and every later record is
// retained. Resuming from anything smaller would leave a gap.
func (w *wal) oldestResumable() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncated
}

// size reports retained length and the count of truncated entries.
func (w *wal) size() (retained int, truncated uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs), w.truncated
}
