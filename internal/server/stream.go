package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"csce/internal/graph"
)

// A flush costs a chunk frame and a write syscall, far more than
// enumerating the embedding it carries, so the reply is flushed in
// batches. The first embedding goes out at once (a limit=1 query and the
// first hit of a slow search are not held back); after that the stream is
// flushed when streamFlushBytes are pending, when the oldest pending
// embedding has waited streamMaxWait, and at end of stream.
//
// Formatting is batched too: an embedding is only copied into a pending
// batch, and the batch is rendered in one timed pass once it holds
// streamBatchIDs ids, when the row width changes, when the timer flushes,
// and at end of stream. A clock pair per embedding cost more than the
// search that produced it.
const (
	streamFlushBytes = 32 << 10
	streamMaxWait    = 2 * time.Millisecond
	streamBatchIDs   = 2048
)

// matchStream writes one match reply's NDJSON lines. embedding is the
// engine's OnEmbedding callback, called from one goroutine at a time; the
// only other writer is the max-wait timer, and mu orders the two.
type matchStream struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when the connection cannot flush

	mu      sync.Mutex
	buf     []byte           // complete lines not yet written
	batch   []graph.VertexID // embeddings accepted but not yet formatted, width ids each
	rows    int              // embeddings in batch
	width   int              // ids per embedding in batch
	timer   *time.Timer      // armed exactly while buf or batch holds something
	emitted uint64           // embeddings accepted into the stream
	err     error            // first write error; the client is gone
	ns      int64            // time the search spent formatting, writing and flushing
}

func newMatchStream(w http.ResponseWriter) *matchStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	s := &matchStream{w: w}
	s.flusher, _ = w.(http.Flusher)
	s.timer = time.AfterFunc(time.Hour, s.onTimer)
	s.timer.Stop()
	return s
}

// embedding accepts one embedding; false stops the search because the
// client is gone. Most calls only copy m into the batch: the clock is read
// only around a formatting pass, and when the timer holds mu, around the
// wait for it.
//
//csce:hotpath runs once per streamed embedding; a per-call allocation scales with the reply
func (s *matchStream) embedding(m []graph.VertexID) bool {
	if !s.mu.TryLock() {
		wait := time.Now()
		s.mu.Lock()
		s.ns += int64(time.Since(wait))
	}
	defer s.mu.Unlock()
	if s.err != nil {
		return false
	}
	armed := len(s.buf) > 0 || s.rows > 0
	if s.rows > 0 && len(m) != s.width {
		start := time.Now()
		s.formatLocked()
		s.ns += int64(time.Since(start))
	}
	s.batch = append(s.batch, m...)
	s.rows++
	s.width = len(m)
	flushed := false
	if s.emitted == 0 || len(s.batch) >= streamBatchIDs {
		start := time.Now()
		s.formatLocked()
		if flushed = s.emitted == 0 || len(s.buf) >= streamFlushBytes; flushed {
			s.flushLocked()
		}
		s.ns += int64(time.Since(start))
	}
	if !flushed && !armed {
		s.timer.Reset(streamMaxWait)
	}
	if s.err == nil {
		s.emitted++
	}
	return s.err == nil
}

// embeddingPrefix and embeddingSuffix frame every line; lineSpace is the
// most a line can need beyond its ids, and idSpace the most one id can
// need with its comma.
const (
	embeddingPrefix = `{"embedding":[`
	embeddingSuffix = "]}\n"
	lineSpace       = len(embeddingPrefix) + len(embeddingSuffix)
	idSpace         = 11 // 4294967295 and a comma
)

// formatLocked renders the batch into buf, one line per embedding, the
// same bytes strconv.AppendUint would give, and empties it.
//
//csce:hotpath one pass per batch formats every streamed id; nothing here may allocate per id
func (s *matchStream) formatLocked() {
	b := s.buf
	w := s.width
	for r := 0; r < s.rows; r++ {
		row := s.batch[r*w : r*w+w]
		// Room for the line's longest rendering, by append growth: buf
		// keeps its capacity across passes and flushes, so this loop
		// runs a few times per reply, not per line. (slices.Grow, inlined,
		// would put a make of non-constant size on the hot path.)
		for cap(b)-len(b) < lineSpace+idSpace*w {
			b = append(b[:cap(b)], 0)[:len(b)]
		}
		n := len(b)
		b = b[:cap(b)]
		n += copy(b[n:], embeddingPrefix)
		for i, v := range row {
			if i > 0 {
				b[n] = ','
				n++
			}
			n = putID(b, n, uint32(v))
		}
		n += copy(b[n:], embeddingSuffix)
		b = b[:n]
	}
	s.buf = b
	s.batch = s.batch[:0]
	s.rows = 0
}

// digitPairs holds "00" through "99", so ids are rendered two digits per
// division.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putID writes v in decimal at b[n:], which has room for 10 bytes, and
// returns the index after its last digit. Ids below 10 000, every id of
// the bundled datasets, take one branch by digit count and no loop.
func putID(b []byte, n int, v uint32) int {
	switch {
	case v < 10:
		b[n] = '0' + byte(v)
		return n + 1
	case v < 100:
		b[n], b[n+1] = digitPairs[2*v], digitPairs[2*v+1]
		return n + 2
	case v < 1000:
		q, r := v/100, v%100
		b[n], b[n+1], b[n+2] = '0'+byte(q), digitPairs[2*r], digitPairs[2*r+1]
		return n + 3
	case v < 10000:
		q, r := v/100, v%100
		b[n], b[n+1], b[n+2], b[n+3] = digitPairs[2*q], digitPairs[2*q+1], digitPairs[2*r], digitPairs[2*r+1]
		return n + 4
	}
	end := n + decimalLen(v)
	i := end
	for v >= 100 {
		q, r := v/100, v%100
		i -= 2
		b[i], b[i+1] = digitPairs[2*r], digitPairs[2*r+1]
		v = q
	}
	if v >= 10 {
		b[i-2], b[i-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		b[i-1] = '0' + byte(v)
	}
	return end
}

// decimalLen is the number of decimal digits of v.
func decimalLen(v uint32) int {
	n := 1
	for p := uint32(10); n < 10 && v >= p; p *= 10 {
		n++
	}
	return n
}

// onTimer formats and flushes on behalf of an embedding that has waited
// streamMaxWait. One that fires late, after end, finds nothing pending and
// leaves w alone. It runs beside the search, so its time is not the
// search's: ns gains only what an embedding or end then waits for mu.
func (s *matchStream) onTimer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.formatLocked()
	s.flushLocked()
}

// flushLocked writes everything formatted and pushes it to the client.
func (s *matchStream) flushLocked() {
	s.timer.Stop()
	if s.err == nil && len(s.buf) > 0 {
		if _, s.err = s.w.Write(s.buf); s.err == nil && s.flusher != nil {
			s.flusher.Flush()
		}
	}
	s.buf = s.buf[:0]
}

// end formats and flushes what is pending once the search has returned,
// and reports the embeddings streamed, the time the search goroutine spent
// formatting, writing and flushing them (what the caller takes off the
// search's wall time to get exec), and whether a write failed (the client
// is gone). The handlers also defer it, so that no timer flush touches w
// after they have returned, whichever way they return.
func (s *matchStream) end() (emitted uint64, dur time.Duration, dead bool) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.formatLocked()
	s.flushLocked()
	s.ns += int64(time.Since(start))
	return s.emitted, time.Duration(s.ns), s.err != nil
}

// summary writes the closing line and flushes it, unless the client is
// gone. It follows end, which has formatted every embedding.
func (s *matchStream) summary(doc map[string]any) {
	line, _ := json.Marshal(doc)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(append(s.buf, line...), '\n')
	s.flushLocked()
}
