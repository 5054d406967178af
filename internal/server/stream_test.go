package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"csce/internal/core"
	"csce/internal/graph"
	"csce/internal/shard"
)

// flushRecorder is the client's side of a reply: an http.ResponseWriter
// whose Flush records what became visible at that moment. After failAfter
// flushes (when set) the connection is gone and writes fail.
type flushRecorder struct {
	mu        sync.Mutex
	hdr       http.Header
	code      int // the status sent; 0 until then
	unflushed []byte
	flushed   [][]byte // what each Flush made visible
	failAfter int
	failed    int           // writes refused
	slow      time.Duration // how long each Flush takes
	notify    chan struct{} // one token per Flush and per refused write
}

func newFlushRecorder(failAfter int) *flushRecorder {
	// The buffer outlasts any reply these tests produce, so the writer
	// under test never blocks on a test that is not listening.
	return &flushRecorder{hdr: http.Header{}, failAfter: failAfter, notify: make(chan struct{}, 1<<16)}
}

func (f *flushRecorder) Header() http.Header { return f.hdr }

func (f *flushRecorder) WriteHeader(code int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.code == 0 {
		f.code = code
	}
}

// status is the reply's HTTP status: what WriteHeader sent, else 200.
func (f *flushRecorder) status() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.code == 0 {
		return http.StatusOK
	}
	return f.code
}

func (f *flushRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.code == 0 {
		f.code = http.StatusOK
	}
	if f.failAfter > 0 && len(f.flushed) >= f.failAfter {
		f.failed++
		f.notify <- struct{}{}
		return 0, errors.New("connection reset by test")
	}
	f.unflushed = append(f.unflushed, p...)
	return len(p), nil
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	time.Sleep(f.slow)
	f.flushed = append(f.flushed, f.unflushed)
	f.unflushed = nil
	f.notify <- struct{}{}
}

// wait blocks until the next flush or refused write.
func (f *flushRecorder) wait(t *testing.T) {
	t.Helper()
	select {
	case <-f.notify:
	case <-time.After(10 * time.Second):
		t.Fatal("no flush within 10s")
	}
}

// snapshot returns the flushes so far, their total size, and the number of
// refused writes.
func (f *flushRecorder) snapshot() (flushes [][]byte, size, failed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range f.flushed {
		size += len(b)
	}
	return append([][]byte(nil), f.flushed...), size, f.failed
}

func embeddingLines(b []byte) int { return bytes.Count(b, []byte(`{"embedding":[`)) }

// flushBudget is the most flushes a reply of the given size, produced over
// the given time, may take: one for the first embedding, one per
// streamFlushBytes, one per streamMaxWait that went by, one at end of
// stream and one for the summary.
func flushBudget(size int, elapsed time.Duration) int {
	return 3 + size/streamFlushBytes + int(elapsed/streamMaxWait)
}

// TestMatchStreamFlushPolicy drives the stream writer directly: the first
// embedding is flushed at once; a lone second one is flushed by the timer
// after streamMaxWait with no further call; a burst is flushed by size, not
// by line; end and summary flush what is left.
func TestMatchStreamFlushPolicy(t *testing.T) {
	rec := newFlushRecorder(0)
	s := newMatchStream(rec)
	m := []graph.VertexID{1, 22, 333}

	if !s.embedding(m) {
		t.Fatal("first embedding refused")
	}
	if fl, _, _ := rec.snapshot(); len(fl) != 1 || string(fl[0]) != "{\"embedding\":[1,22,333]}\n" {
		t.Fatalf("first embedding must be flushed at once, alone: %q", fl)
	}
	<-rec.notify

	held := time.Now()
	s.embedding(m)
	rec.wait(t) // no further call: only the timer can flush it
	if fl, _, _ := rec.snapshot(); len(fl) != 2 || embeddingLines(fl[1]) != 1 {
		t.Fatalf("timer flush must carry the held embedding: %q", fl)
	}
	if waited := time.Since(held); waited < streamMaxWait {
		t.Fatalf("second embedding flushed after %v, before streamMaxWait: only the first is exempt from batching", waited)
	}

	const burst = 10000
	start := time.Now()
	for i := 0; i < burst; i++ {
		if !s.embedding(m) {
			t.Fatal("embedding refused by a live client")
		}
	}
	emitted, dur, dead := s.end()
	elapsed := time.Since(start)
	s.summary(map[string]any{"done": true})

	fl, size, _ := rec.snapshot()
	if emitted != burst+2 || dead || dur <= 0 {
		t.Fatalf("end() = %d embeddings, %v, dead=%v", emitted, dur, dead)
	}
	if budget := 1 + flushBudget(size, elapsed); len(fl) > budget { // 1: the timer flush above
		t.Fatalf("%d flushes for %d bytes in %v, budget %d", len(fl), size, elapsed, budget)
	}
	lines := 0
	for _, b := range fl {
		lines += embeddingLines(b)
	}
	if last := string(fl[len(fl)-1]); lines != burst+2 || last != "{\"done\":true}\n" {
		t.Fatalf("%d embedding lines, last flush %q", lines, last)
	}
}

// TestMatchStreamDeadClient: a failed write — here one the timer made, with
// the search quiet — turns the next embedding into a stop signal, is
// reported by end, and silences the summary.
func TestMatchStreamDeadClient(t *testing.T) {
	rec := newFlushRecorder(1)
	s := newMatchStream(rec)
	m := []graph.VertexID{7}
	if !s.embedding(m) {
		t.Fatal("first embedding refused")
	}
	<-rec.notify
	if !s.embedding(m) {
		t.Fatal("a buffered embedding cannot know the client is gone yet")
	}
	rec.wait(t) // the timer's write, refused
	if s.embedding(m) {
		t.Fatal("embedding accepted after a failed write")
	}
	emitted, _, dead := s.end()
	s.summary(map[string]any{"done": true})
	if fl, _, failed := rec.snapshot(); emitted != 2 || !dead || len(fl) != 1 || failed != 1 {
		t.Fatalf("emitted=%d dead=%v flushes=%d refused writes=%d; want 2, true, 1, 1", emitted, dead, len(fl), failed)
	}
}

// TestMatchStreamTimesTheSearchOnly: a flush the timer makes runs beside the
// search, so its duration is no part of what end reports (the handlers
// subtract that from the search's wall time to get exec); and once end has
// returned — the handlers defer it — no timer touches the writer again.
func TestMatchStreamTimesTheSearchOnly(t *testing.T) {
	rec := newFlushRecorder(0)
	s := newMatchStream(rec)
	m := []graph.VertexID{7}
	s.embedding(m)
	<-rec.notify
	rec.mu.Lock()
	rec.slow = 200 * time.Millisecond
	rec.mu.Unlock()
	s.embedding(m)
	rec.wait(t) // the timer's flush, 200 ms of it, is over
	if _, dur, _ := s.end(); dur >= rec.slow {
		t.Fatalf("end reports %v of stream time; the search goroutine never waited on the %v timer flush", dur, rec.slow)
	}
	s.timer.Reset(0) // a timer that fires after end
	time.Sleep(20 * time.Millisecond)
	if fl, _, _ := rec.snapshot(); len(fl) != 2 {
		t.Fatalf("%d flushes; a timer firing after end must find nothing to write", len(fl))
	}
}

// TestMatchReplyStreamContract runs whole /match requests against a
// recording client, on a single-store and on a sharded graph.
func TestMatchReplyStreamContract(t *testing.T) {
	g := shardTestGraph(400, 1200, 11) // ~25 000 three-vertex paths
	_, s := startServer(t, Config{MaxLimit: 200_000_000, MaxTimeout: 10 * time.Minute},
		map[string]*graph.Graph{"solo": g, "boom": graph.Clique(40, 0)})
	if _, err := s.Registry().AddSharded("sharded", core.NewEngine(g), 4, shard.SchemeID); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func(ctx context.Context, rec *flushRecorder, name, pattern, query string) {
		req := httptest.NewRequest("POST", "/v1/graphs/"+name+"/match?"+query, strings.NewReader(pattern))
		h.ServeHTTP(rec, req.WithContext(ctx))
	}
	isSummary := func(b []byte) bool {
		return embeddingLines(b) == 0 && bytes.Contains(b, []byte(`"done":true`)) && bytes.HasSuffix(b, []byte("}\n"))
	}

	for _, name := range []string{"solo", "sharded"} {
		// limit=1: the embedding is not held back for the summary.
		rec := newFlushRecorder(0)
		serve(context.Background(), rec, name, pathPattern3, "limit=1")
		fl, _, _ := rec.snapshot()
		if len(fl) != 2 || embeddingLines(fl[0]) != 1 || !isSummary(fl[1]) {
			t.Fatalf("%s limit=1: flushes %q", name, fl)
		}

		// 10 000 embeddings: the first goes out alone, without waiting for
		// a full buffer; the rest in O(bytes/threshold) flushes; the
		// summary in a flush of its own.
		rec = newFlushRecorder(0)
		start := time.Now()
		serve(context.Background(), rec, name, pathPattern3, "limit=10000")
		elapsed := time.Since(start)
		fl, size, _ := rec.snapshot()
		lines := 0
		for _, b := range fl {
			lines += embeddingLines(b)
		}
		if lines != 10000 || embeddingLines(fl[0]) != 1 || !isSummary(fl[len(fl)-1]) {
			t.Fatalf("%s: %d embedding lines, first flush %q, last %q", name, lines, fl[0], fl[len(fl)-1])
		}
		if len(fl) > flushBudget(size, elapsed) {
			t.Fatalf("%s: %d flushes for %d bytes in %v, budget %d", name, len(fl), size, elapsed, flushBudget(size, elapsed))
		}

		// The client hangs up after the first flush: the next write fails,
		// the search stops there, and nothing is written after it.
		rec = newFlushRecorder(1)
		serve(context.Background(), rec, name, pathPattern3, "limit=20000")
		if fl, _, failed := rec.snapshot(); len(fl) != 1 || failed != 1 {
			t.Fatalf("%s disconnect: %d flushes, %d refused writes; want 1 and 1", name, len(fl), failed)
		}
	}

	// A search that runs for hours (clique-6 in K40): its first embedding
	// reaches the client while it is still running, and when the client
	// goes away it stops within the batch it was filling.
	rec := newFlushRecorder(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ctx, rec, "boom", cliq6Pattern, "")
	}()
	rec.wait(t)
	select {
	case <-done:
		t.Fatal("the search ended before its first embedding was flushed")
	default:
	}
	if fl, _, _ := rec.snapshot(); embeddingLines(fl[0]) != 1 {
		t.Fatalf("first flush of a running search: %q", fl[0])
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("search still running 10s after the client went away")
	}
	fl, _, _ := rec.snapshot()
	if last := fl[len(fl)-1]; !isSummary(last) || !bytes.Contains(last, []byte(`"cancelled":true`)) {
		t.Fatalf("a cancelled search must still flush its summary: %q", last)
	}

	rec = newFlushRecorder(1)
	start := time.Now()
	serve(context.Background(), rec, "boom", cliq6Pattern, "")
	if _, _, failed := rec.snapshot(); failed != 1 || time.Since(start) > 5*time.Second {
		t.Fatalf("disconnect mid-search: %d refused writes, returned after %v", failed, time.Since(start))
	}
	if n := s.metrics.queriesCancelled.Load(); n != 4 {
		t.Fatalf("queries_cancelled = %d, want 4 (three hang-ups and one cancellation)", n)
	}
}
