package server

import (
	"encoding/json"
	"net/http"
	"strconv"
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
const (
	streamFlushBytes = 32 << 10
	streamMaxWait    = 2 * time.Millisecond
)

// matchStream writes one match reply's NDJSON lines. embedding is the
// engine's OnEmbedding callback, called from one goroutine at a time; the
// only other writer is the max-wait timer, and mu orders the two.
type matchStream struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when the connection cannot flush

	mu      sync.Mutex
	buf     []byte      // complete lines not yet written
	timer   *time.Timer // armed exactly while buf holds lines
	emitted uint64      // embeddings accepted into the stream
	err     error       // first write error; the client is gone
	ns      int64       // time the search spent in embedding and end
}

func newMatchStream(w http.ResponseWriter) *matchStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	s := &matchStream{w: w}
	s.flusher, _ = w.(http.Flusher)
	s.timer = time.AfterFunc(time.Hour, s.onTimer)
	s.timer.Stop()
	return s
}

// embedding appends one embedding line; false stops the search because the
// client is gone.
func (s *matchStream) embedding(m []graph.VertexID) bool {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := len(s.buf) > 0
	s.buf = append(s.buf, `{"embedding":[`...)
	for i, v := range m {
		if i > 0 {
			s.buf = append(s.buf, ',')
		}
		s.buf = strconv.AppendUint(s.buf, uint64(v), 10)
	}
	s.buf = append(s.buf, ']', '}', '\n')
	switch {
	case s.emitted == 0 || len(s.buf) >= streamFlushBytes:
		s.flushLocked()
	case !pending:
		s.timer.Reset(streamMaxWait)
	}
	if s.err == nil {
		s.emitted++
	}
	s.ns += int64(time.Since(start))
	return s.err == nil
}

// onTimer flushes on behalf of an embedding that has waited streamMaxWait.
// One that fires late, after end, finds nothing pending and leaves w alone.
// It runs beside the search, so its time is not the search's: ns gains only
// what an embedding or end then waits for mu.
func (s *matchStream) onTimer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

// flushLocked writes everything pending and pushes it to the client.
func (s *matchStream) flushLocked() {
	s.timer.Stop()
	if s.err == nil && len(s.buf) > 0 {
		if _, s.err = s.w.Write(s.buf); s.err == nil && s.flusher != nil {
			s.flusher.Flush()
		}
	}
	s.buf = s.buf[:0]
}

// end flushes what is pending once the search has returned, and reports
// the embeddings streamed, the time the search goroutine spent formatting,
// writing and flushing them (what the caller takes off the search's wall
// time to get exec), and whether a write failed (the client is gone). The
// handlers also defer it, so that no timer flush touches w after they have
// returned, whichever way they return.
func (s *matchStream) end() (emitted uint64, dur time.Duration, dead bool) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	s.ns += int64(time.Since(start))
	return s.emitted, time.Duration(s.ns), s.err != nil
}

// summary writes the closing line and flushes it, unless the client is
// gone.
func (s *matchStream) summary(doc map[string]any) {
	line, _ := json.Marshal(doc)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(append(s.buf, line...), '\n')
	s.flushLocked()
}
