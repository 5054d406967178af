package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one query end to end: generated at admission, carried
// through the engine via context, echoed in the X-Trace-Id response header
// and the NDJSON summary line, and stamped on every structured log line —
// one grep correlates all of them.
type TraceID string

// traceCounter salts IDs so they stay unique even if the random source
// fails (it never should; the counter also makes IDs cheap to distinguish
// in tests).
var traceCounter atomic.Uint64

// NewTraceID returns a 16-hex-char process-unique ID: 6 random bytes plus
// a 2-byte counter, so IDs are unguessable across processes and strictly
// distinct within one.
func NewTraceID() TraceID {
	var b [8]byte
	_, _ = rand.Read(b[:6])
	binary.BigEndian.PutUint16(b[6:], uint16(traceCounter.Add(1)))
	return TraceID(hex.EncodeToString(b[:]))
}

// SpanID identifies one span within its trace. IDs are unique within a
// trace and never zero; a zero Parent marks a child of the trace's root
// span (the root itself has Parent zero too — it is the only span whose ID
// equals FinishedTrace.Root).
type SpanID uint64

// MarshalText renders the ID as 16 lowercase hex characters (the wire form
// Zipkin and OTLP expect, and what /debug/trace and the slowlog emit).
func (s SpanID) MarshalText() ([]byte, error) {
	return []byte(s.Hex()), nil
}

// UnmarshalText parses the 16-hex-char form back.
func (s *SpanID) UnmarshalText(b []byte) error {
	v, err := hex.DecodeString(string(b))
	if err != nil || len(v) != 8 {
		return fmt.Errorf("obs: bad span id %q", b)
	}
	*s = SpanID(binary.BigEndian.Uint64(v))
	return nil
}

// Hex returns the 16-hex-char wire form.
func (s SpanID) Hex() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(s))
	return hex.EncodeToString(b[:])
}

// Attr is one structured span attribute: a string or an int64 under a key.
// Attributes ride on finished spans into the exporter, the completed-trace
// ring, and the slow-query log, so "which shard", "which epoch", and "how
// many candidates" survive past the process.
type Attr struct {
	Key   string `json:"key"`
	Str   string `json:"str,omitempty"`
	Num   int64  `json:"num,omitempty"`
	IsNum bool   `json:"is_num,omitempty"`
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Num: val, IsNum: true} }

// Value returns the attribute's payload as a string or an int64.
func (a Attr) Value() any {
	if a.IsNum {
		return a.Num
	}
	return a.Str
}

// Span is one timed phase of a query, as an offset window from the trace
// start — admission wait, planning, execution, streaming. ID/Parent link
// the spans of one trace into a tree; Attrs carry the phase's structured
// facts (shard id, epoch, candidate counts, WAL seqs).
type Span struct {
	Name   string        `json:"name"`
	ID     SpanID        `json:"span_id"`
	Parent SpanID        `json:"parent_id,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// FinishedTrace is the immutable result of Trace.Finish: every recorded
// span (the root, named at finish time, last) plus the identifiers needed
// to rebuild the tree. It is what flows into SpanSinks — the exporter
// queue and the completed-trace ring.
type FinishedTrace struct {
	ID    TraceID   `json:"trace_id"`
	Begin time.Time `json:"begin"`
	Root  SpanID    `json:"root"`
	Spans []Span    `json:"spans"`
}

// SpanSink consumes finished traces. TraceFinished must not block — it is
// called on the request path — and reports whether the trace was accepted
// (a drop-on-full exporter queue returns false).
type SpanSink interface {
	TraceFinished(ft FinishedTrace) bool
}

// Trace collects the spans of one query under its ID. A Trace is carried
// in the query's context; all methods are nil-safe so uninstrumented code
// paths (library use, tests) pay nothing.
type Trace struct {
	ID    TraceID
	Begin time.Time
	// Sink, when set, receives the FinishedTrace from Finish. Set it
	// right after NewTrace, before any span can end.
	Sink SpanSink

	idBase  uint64 // random per-trace basis for span IDs
	spanCtr atomic.Uint64
	root    SpanID

	mu    sync.Mutex
	spans []Span
	done  bool
}

// spanCap presizes a trace's span slice: a store-path match records about
// ten spans, a sharded one 1 + 8 + K, so most traces never grow it.
const spanCap = 16

// NewTrace starts a trace now under a fresh ID and allocates its root
// span ID (the root span itself is materialized by Finish).
func NewTrace() *Trace {
	id := NewTraceID()
	var raw [8]byte
	_, _ = hex.Decode(raw[:], []byte(id))
	t := &Trace{ID: id, Begin: time.Now(), idBase: binary.BigEndian.Uint64(raw[:]) | 1,
		spans: make([]Span, 0, spanCap)}
	t.root = t.newSpanID()
	return t
}

// newSpanID mints the next span ID: the random trace basis plus a strictly
// increasing counter, so IDs are unique within the trace (injective in the
// counter) and unguessable across traces. Never zero.
func (t *Trace) newSpanID() SpanID {
	id := SpanID(t.idBase + t.spanCtr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// endSpan records one completed span.
func (t *Trace) endSpan(name string, id, parent SpanID, start time.Duration, attrs []Attr) {
	end := time.Since(t.Begin)
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Start: start, End: end, Attrs: attrs})
	t.mu.Unlock()
}

// StartSpan opens a named span parented at the trace's root and returns
// the func that closes it (optionally attaching attributes). Nil-safe: on
// a nil trace the returned func is a no-op. For spans that must nest under
// the caller's current span, use StartSpanCtx instead.
func (t *Trace) StartSpan(name string) func(...Attr) {
	if t == nil {
		return func(...Attr) {}
	}
	id := t.newSpanID()
	start := time.Since(t.Begin)
	return func(attrs ...Attr) { t.endSpan(name, id, t.root, start, attrs) }
}

// AddSpan records an already-measured phase (for callers that time phases
// themselves), parented at the root. Nil-safe.
func (t *Trace) AddSpan(name string, start, end time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	id := t.newSpanID()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: t.root, Start: start, End: end, Attrs: attrs})
	t.mu.Unlock()
}

// Finish closes the trace: the root span is materialized under the given
// name covering [0, now] with the given attributes, the span set is
// snapshotted, and the FinishedTrace is handed to the Sink (when set).
// Returns the finished trace and whether the sink accepted it. Nil-safe
// and idempotent: a nil or already-finished trace returns the zero value
// and false.
func (t *Trace) Finish(name string, attrs ...Attr) (FinishedTrace, bool) {
	if t == nil {
		return FinishedTrace{}, false
	}
	end := time.Since(t.Begin)
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return FinishedTrace{}, false
	}
	t.done = true
	t.spans = append(t.spans, Span{Name: name, ID: t.root, Start: 0, End: end, Attrs: attrs})
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	ft := FinishedTrace{ID: t.ID, Begin: t.Begin, Root: t.root, Spans: spans}
	accepted := false
	if t.Sink != nil {
		accepted = t.Sink.TraceFinished(ft)
	}
	return ft, accepted
}

// Spans returns a copy of the recorded spans in completion order.
// Nil-safe: a nil trace has none.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SpanDoc renders the spans as a JSON-ready map of name → duration in
// milliseconds (later spans with the same name overwrite earlier ones).
func (t *Trace) SpanDoc() map[string]float64 {
	spans := t.Spans()
	if spans == nil {
		return nil
	}
	doc := make(map[string]float64, len(spans))
	for _, s := range spans {
		doc[s.Name] = round3(float64(s.Duration()) / 1e6)
	}
	return doc
}

// traceKey is the context key for the query's Trace; spanKey carries the
// current span ID so StartSpanCtx can nest children correctly.
type (
	traceKey struct{}
	spanKey  struct{}
)

// WithTrace returns a context carrying t; the current span is the root.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the context's trace, or nil when the query is not
// traced. Combined with the nil-safe Trace methods, callers never need to
// branch.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Traced reports whether ctx carries a trace. A closer's attributes are a
// variadic slice the caller builds even when the closer is a no-op, and
// passed through a func value that slice escapes to the heap; a caller
// whose closer takes several attributes asks Traced first, so an untraced
// query builds none.
func Traced(ctx context.Context) bool { return TraceFrom(ctx) != nil }

// StartSpanCtx opens a named span as a child of the context's current span
// (the root when no span is open) and returns a derived context under
// which further spans nest below it, plus the closing func. Nil-safe: an
// untraced context comes back unchanged with a no-op closer.
func StartSpanCtx(ctx context.Context, name string) (context.Context, func(...Attr)) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, func(...Attr) {}
	}
	parent := t.root
	if sid, ok := ctx.Value(spanKey{}).(SpanID); ok {
		parent = sid
	}
	id := t.newSpanID()
	start := time.Since(t.Begin)
	return context.WithValue(ctx, spanKey{}, id), func(attrs ...Attr) {
		t.endSpan(name, id, parent, start, attrs)
	}
}
