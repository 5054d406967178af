package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"testing"
	"time"

	"csce/internal/graph"
)

// referenceLine is how an embedding line was rendered before formatting
// was batched: strconv, one id at a time.
func referenceLine(m []graph.VertexID) []byte {
	b := []byte(`{"embedding":[`)
	for i, v := range m {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return append(b, ']', '}', '\n')
}

// idBoundaries are the ids either side of every change in digit count.
func idBoundaries() []uint32 {
	out := []uint32{0, math.MaxUint32 - 1, math.MaxUint32}
	for p := uint64(10); p <= math.MaxUint32; p *= 10 {
		out = append(out, uint32(p-1), uint32(p), uint32(p+1))
	}
	return out
}

// TestPutIDMatchesStrconv checks the digit writer against strconv on every
// id below 2·10⁵, at each digit-count boundary and on random ids.
func TestPutIDMatchesStrconv(t *testing.T) {
	var b [10]byte
	check := func(v uint32) {
		if got, want := string(b[:putID(b[:], 0, v)]), strconv.FormatUint(uint64(v), 10); got != want {
			t.Fatalf("putID(%d) = %q, want %q", v, got, want)
		}
	}
	for v := uint32(0); v < 200_000; v++ {
		check(v)
	}
	for _, v := range idBoundaries() {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(rng.Uint32())
	}
}

// TestMatchStreamBytesIdentical streams embeddings of width 1-64 whose ids
// sit on digit-count boundaries or are uniform, through a width change and
// a batch that fills exactly at streamBatchIDs, and requires every line to
// be the strconv rendering and to decode to the ids that were sent.
func TestMatchStreamBytesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := idBoundaries()
	row := func(width int) []graph.VertexID {
		m := make([]graph.VertexID, width)
		for i := range m {
			if rng.Intn(2) == 0 {
				m[i] = graph.VertexID(bounds[rng.Intn(len(bounds))])
			} else {
				m[i] = graph.VertexID(rng.Uint32())
			}
		}
		return m
	}

	var (
		rec  *flushRecorder
		s    *matchStream
		sent [][]graph.VertexID
	)
	push := func(m []graph.VertexID) {
		t.Helper()
		if !s.embedding(m) {
			t.Fatal("embedding refused by a live client")
		}
		sent = append(sent, m)
	}

	// The first embedding is formatted and flushed alone. The second arms
	// the max-wait timer, which is stopped again so that nothing but the
	// threshold formats the batch: 128 rows of 16 ids fill it to exactly
	// streamBatchIDs. The lines formatted there stay under
	// streamFlushBytes, so the timer stays disarmed through the width
	// change below as well.
	for attempt := 0; ; attempt++ {
		rec, sent = newFlushRecorder(0), nil
		s = newMatchStream(rec)
		push(row(16))
		push(row(16))
		s.mu.Lock()
		stopped := s.timer.Stop()
		s.mu.Unlock()
		if stopped {
			break
		}
		s.end()
		if attempt == 10 {
			t.Fatal("the max-wait timer fired before it could be stopped, ten times")
		}
	}
	for i := 1; i < streamBatchIDs/16; i++ {
		push(row(16))
	}
	s.mu.Lock()
	rows := s.rows
	s.mu.Unlock()
	if rows != 0 {
		t.Fatalf("%d embeddings left unformatted in a batch of exactly %d ids", rows, streamBatchIDs)
	}
	push(row(16))
	push(row(16))
	push(row(5)) // the width changes with two rows pending
	s.mu.Lock()
	rows, width := s.rows, s.width
	s.mu.Unlock()
	if rows != 1 || width != 5 {
		t.Fatalf("after a width change the batch holds %d rows of width %d; want the new row alone", rows, width)
	}
	for i := 0; i < 3000; i++ {
		push(row(1 + rng.Intn(64)))
	}
	if emitted, _, dead := s.end(); emitted != uint64(len(sent)) || dead {
		t.Fatalf("end() = %d embeddings, dead=%v; want %d", emitted, dead, len(sent))
	}

	fl, _, _ := rec.snapshot()
	lines := bytes.SplitAfter(bytes.Join(fl, nil), []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	if len(lines) != len(sent) {
		t.Fatalf("%d lines for %d embeddings", len(lines), len(sent))
	}
	for i, line := range lines {
		if want := referenceLine(sent[i]); !bytes.Equal(line, want) {
			t.Fatalf("line %d = %q, want %q", i, line, want)
		}
		var doc struct{ Embedding []uint32 }
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if len(doc.Embedding) != len(sent[i]) {
			t.Fatalf("line %d decodes to %d ids, want %d", i, len(doc.Embedding), len(sent[i]))
		}
		for j, v := range doc.Embedding {
			if v != uint32(sent[i][j]) {
				t.Fatalf("line %d id %d decodes to %d, want %d", i, j, v, sent[i][j])
			}
		}
	}
}

// TestMatchStreamTimerFormatsTheBatch: embeddings held in the batch,
// not yet formatted, reach the client with the timer's flush and with no
// further call.
func TestMatchStreamTimerFormatsTheBatch(t *testing.T) {
	rec := newFlushRecorder(0)
	s := newMatchStream(rec)
	s.embedding([]graph.VertexID{1})
	<-rec.notify
	held := [][]graph.VertexID{{2, 30}, {400, 5000}, {60000, 7}}
	var want []byte
	for _, m := range held {
		s.embedding(m)
		want = append(want, referenceLine(m)...)
	}
	var got []byte // in one flush, unless the timer fired between two calls
	for len(got) < len(want) {
		rec.wait(t)
		fl, _, _ := rec.snapshot()
		got = bytes.Join(fl[1:], nil)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("timer flushes %q, want %q", got, want)
	}
}

// TestMatchStreamEndFlushesTheBatch: end formats and flushes a partial
// batch itself, before the summary, when no timer has.
func TestMatchStreamEndFlushesTheBatch(t *testing.T) {
	for attempt := 0; ; attempt++ {
		rec := newFlushRecorder(0)
		s := newMatchStream(rec)
		s.embedding([]graph.VertexID{1})
		<-rec.notify
		var want []byte
		for i := 0; i < 10; i++ {
			m := []graph.VertexID{graph.VertexID(i), graph.VertexID(1000 * i)}
			s.embedding(m)
			want = append(want, referenceLine(m)...)
		}
		s.mu.Lock()
		stopped := s.timer.Stop() // leave the batch to end
		s.mu.Unlock()
		if !stopped {
			if attempt == 10 {
				t.Fatal("the max-wait timer fired before it could be stopped, ten times")
			}
			continue // the timer won the race; try again
		}
		if emitted, _, _ := s.end(); emitted != 11 {
			t.Fatalf("end() reports %d embeddings, want 11", emitted)
		}
		if fl, _, _ := rec.snapshot(); len(fl) != 2 || !bytes.Equal(fl[1], want) {
			t.Fatalf("end flushed %q, want %q", fl[1:], want)
		}
		return
	}
}

// TestMatchStreamCountsAcceptedBeforeDeadWrite: with the client gone after
// its first flush, embedding returns true until a write fails and false
// from then on, and end counts exactly the embeddings it returned true for.
func TestMatchStreamCountsAcceptedBeforeDeadWrite(t *testing.T) {
	rec := newFlushRecorder(1)
	s := newMatchStream(rec)
	m := make([]graph.VertexID, 12)
	for i := range m {
		m[i] = graph.VertexID(4000 + i)
	}
	accepted := uint64(0)
	for i := 0; i < 100_000 && s.embedding(m); i++ {
		accepted++
	}
	for i := 0; i < 10; i++ {
		if s.embedding(m) {
			t.Fatal("embedding accepted after a failed write")
		}
	}
	emitted, _, dead := s.end()
	if emitted != accepted || !dead || accepted < 2 {
		t.Fatalf("end() = %d embeddings, dead=%v; %d were accepted", emitted, dead, accepted)
	}
	if fl, _, failed := rec.snapshot(); len(fl) != 1 || failed != 1 {
		t.Fatalf("%d flushes, %d refused writes; want 1 and 1", len(fl), failed)
	}
}

// discardFlusher is a client that reads everything at once.
type discardFlusher struct{ hdr http.Header }

func (d *discardFlusher) Header() http.Header         { return d.hdr }
func (d *discardFlusher) WriteHeader(int)             {}
func (d *discardFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardFlusher) Flush()                      {}

// BenchmarkMatchStream streams 10 000 width-12 embeddings over Human's id
// range (0-4 673) per op, the shape of a read-enumerate reply, and reports
// the stream's cost per embedding.
func BenchmarkMatchStream(b *testing.B) {
	const n, width = 10_000, 12
	rng := rand.New(rand.NewSource(1))
	ids := make([]graph.VertexID, n*width)
	for i := range ids {
		ids[i] = graph.VertexID(rng.Intn(4674))
	}
	w := &discardFlusher{hdr: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := newMatchStream(w)
		for j := 0; j < n; j++ {
			s.embedding(ids[j*width : j*width+width])
		}
		s.end()
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*n), "ns/embedding")
}
