package export

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"csce/internal/obs"
)

// collector is an in-process fake OTLP endpoint: it records every
// POST body it accepts and can be scripted to fail the first N requests
// or to stall until released.
type collector struct {
	mu       sync.Mutex
	bodies   [][]byte
	requests int
	failures int // respond with failStatus to this many requests first
	failWith int
	stall    chan struct{} // when non-nil, handlers block until it closes
}

func (c *collector) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		stall := c.stall
		c.mu.Unlock()
		if stall != nil {
			<-stall
		}
		body, _ := io.ReadAll(r.Body)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.requests++
		if c.failures > 0 {
			c.failures--
			w.WriteHeader(c.failWith)
			return
		}
		c.bodies = append(c.bodies, body)
		w.WriteHeader(http.StatusOK)
	}
}

func (c *collector) accepted() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.bodies))
	copy(out, c.bodies)
	return out
}

func (c *collector) requestCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests
}

// testTrace builds a finished trace with a root and two children, one of
// them nested, so framing tests can check the parent links on the wire.
func testTrace(t *testing.T) obs.FinishedTrace {
	t.Helper()
	tr := obs.NewTrace()
	ctx, endPlan := obs.StartSpanCtx(obs.WithTrace(context.Background(), tr), "plan")
	_, endExec := obs.StartSpanCtx(ctx, "exec")
	endExec(obs.Int("embeddings", 7))
	endPlan(obs.Str("mode", "sce"))
	ft, _ := tr.Finish("http.match", obs.Str("graph", "g"), obs.Int("epoch", 3))
	return ft
}

func startExporter(t *testing.T, cfg Config) *Exporter {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	})
	return e
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

var (
	hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)
	hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)
)

func TestNewRequiresEndpoint(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without endpoint should fail")
	}
}

// TestOTLPBatchFraming asserts the proto3-JSON shape of an exported batch:
// one resourceSpans/scopeSpans envelope carrying every trace's spans,
// 32-hex trace IDs, 16-hex span IDs, kind SERVER on the parentless root,
// kind INTERNAL + parentSpanId on children, and nanosecond decimal-string
// timestamps.
func TestOTLPBatchFraming(t *testing.T) {
	var c collector
	srv := httptest.NewServer(c.handler())
	defer srv.Close()

	e := startExporter(t, Config{Endpoint: srv.URL, Linger: 10 * time.Millisecond})
	ft1, ft2 := testTrace(t), testTrace(t)
	if !e.Enqueue(ft1) || !e.Enqueue(ft2) {
		t.Fatal("Enqueue rejected with an empty queue")
	}
	waitFor(t, "batch delivery", func() bool { return len(c.accepted()) >= 1 })

	var req struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Scope struct {
					Name string `json:"name"`
				} `json:"scope"`
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Kind         int    `json:"kind"`
					StartNano    string `json:"startTimeUnixNano"`
					EndNano      string `json:"endTimeUnixNano"`
					Attributes   []struct {
						Key   string `json:"key"`
						Value struct {
							StringValue *string `json:"stringValue"`
							IntValue    *string `json:"intValue"`
						} `json:"value"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	// The linger window batches both traces into one request; if timing
	// split them, every accepted body still has the same envelope shape.
	if err := json.Unmarshal(c.accepted()[0], &req); err != nil {
		t.Fatalf("decode OTLP body: %v", err)
	}
	if len(req.ResourceSpans) != 1 || len(req.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("want exactly one resourceSpans/scopeSpans envelope, got %d/%d",
			len(req.ResourceSpans), len(req.ResourceSpans[0].ScopeSpans))
	}
	res := req.ResourceSpans[0]
	if res.Resource.Attributes[0].Key != "service.name" || res.Resource.Attributes[0].Value.StringValue != "csced" {
		t.Fatalf("resource service.name = %+v", res.Resource.Attributes)
	}
	spans := res.ScopeSpans[0].Spans
	// ft1 has 3 spans (plan, exec, root); a full batch carries 6.
	if len(spans) < 3 {
		t.Fatalf("want >=3 spans, got %d", len(spans))
	}
	wantTID := "0000000000000000" + string(ft1.ID)
	roots, byID := 0, map[string]string{}
	for _, sp := range spans {
		if !hex32.MatchString(sp.TraceID) {
			t.Fatalf("traceId %q is not 32-hex", sp.TraceID)
		}
		if !hex16.MatchString(sp.SpanID) {
			t.Fatalf("spanId %q is not 16-hex", sp.SpanID)
		}
		if sp.StartNano == "" || sp.EndNano == "" {
			t.Fatalf("span %s missing nano timestamps", sp.Name)
		}
		byID[sp.SpanID] = sp.TraceID
		if sp.Name == "http.match" {
			roots++
			if sp.Kind != 2 {
				t.Fatalf("root span kind = %d, want 2 (SERVER)", sp.Kind)
			}
			if sp.ParentSpanID != "" {
				t.Fatalf("root span has parentSpanId %q", sp.ParentSpanID)
			}
		} else if sp.Kind != 1 {
			t.Fatalf("child span %s kind = %d, want 1 (INTERNAL)", sp.Name, sp.Kind)
		}
	}
	if roots == 0 {
		t.Fatal("no root http.match span on the wire")
	}
	foundTID, foundNested := false, false
	for _, sp := range spans {
		if sp.TraceID == wantTID {
			foundTID = true
		}
		if sp.Name == "exec" {
			parentTID, ok := byID[sp.ParentSpanID]
			if !ok {
				t.Fatalf("exec parentSpanId %q not in batch", sp.ParentSpanID)
			}
			if parentTID != sp.TraceID {
				t.Fatalf("exec parent belongs to trace %s, span to %s", parentTID, sp.TraceID)
			}
			foundNested = true
			for _, a := range sp.Attributes {
				if a.Key == "embeddings" {
					if a.Value.IntValue == nil || *a.Value.IntValue != "7" {
						t.Fatalf("embeddings attr = %+v, want intValue \"7\"", a.Value)
					}
				}
			}
		}
	}
	if !foundTID {
		t.Fatalf("trace %s absent from batch", wantTID)
	}
	if !foundNested {
		t.Fatal("nested exec span absent from batch")
	}
}

// TestRetryBackoff5xx injects two 500s before accepting: the batch must be
// retried (retries counter moves) and eventually counted sent, with
// nothing dropped.
func TestRetryBackoff5xx(t *testing.T) {
	c := collector{failures: 2, failWith: http.StatusInternalServerError}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()

	e := startExporter(t, Config{
		Endpoint: srv.URL, Linger: 5 * time.Millisecond,
		BackoffBase: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond,
		MaxAttempts: 5,
	})
	e.Enqueue(testTrace(t))
	waitFor(t, "retried delivery", func() bool { return e.Stats().Sent == 1 })
	st := e.Stats()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", st.Dropped)
	}
	if got := c.requestCount(); got != 3 {
		t.Fatalf("collector saw %d requests, want 3", got)
	}
}

// TestPermanent4xxDrops asserts a non-retryable status drops the batch
// immediately: one request, no retries, the whole batch counted dropped.
func TestPermanent4xxDrops(t *testing.T) {
	c := collector{failures: 100, failWith: http.StatusBadRequest}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()

	e := startExporter(t, Config{Endpoint: srv.URL, Linger: 5 * time.Millisecond})
	e.Enqueue(testTrace(t))
	e.Enqueue(testTrace(t))
	waitFor(t, "drop accounting", func() bool { return e.Stats().Dropped == 2 })
	st := e.Stats()
	if st.Retries != 0 || st.Sent != 0 {
		t.Fatalf("stats = %+v, want no retries and nothing sent", st)
	}
}

// TestQueueFullDrops stalls the collector so the sender goroutine wedges
// on the in-flight POST, fills the queue, and asserts Enqueue keeps
// returning instantly with drops counted — the "stalled collector never
// blocks a query" contract.
func TestQueueFullDrops(t *testing.T) {
	stall := make(chan struct{})
	c := collector{stall: stall}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()
	defer close(stall)

	e := startExporter(t, Config{
		Endpoint: srv.URL, QueueSize: 4, BatchSize: 1, Linger: time.Millisecond,
		MaxAttempts: 1, RequestTimeout: 30 * time.Second,
	})
	// Overfill: the loop takes at most a few traces out of the queue before
	// wedging on the stalled POST, so 64 enqueues must hit the full queue.
	accepted, rejected := 0, 0
	for i := 0; i < 64; i++ {
		start := time.Now()
		if e.Enqueue(testTrace(t)) {
			accepted++
		} else {
			rejected++
		}
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("Enqueue blocked for %v against a stalled collector", elapsed)
		}
	}
	if rejected == 0 {
		t.Fatal("no enqueues rejected with a stalled collector and a 4-deep queue")
	}
	st := e.Stats()
	if st.Dropped != uint64(rejected) {
		t.Fatalf("dropped = %d, want %d (one per rejected enqueue)", st.Dropped, rejected)
	}
	if st.Queued != uint64(accepted) {
		t.Fatalf("queued = %d, want %d", st.Queued, accepted)
	}
}

// TestShutdownDrains enqueues a tail of traces and immediately shuts
// down: every queued trace must reach the collector before Shutdown
// returns — the no-lost-tail-spans-on-SIGTERM contract.
func TestShutdownDrains(t *testing.T) {
	var c collector
	srv := httptest.NewServer(c.handler())
	defer srv.Close()

	// A long linger proves Shutdown flushes without waiting for the timer.
	e, err := New(Config{Endpoint: srv.URL, Linger: time.Hour, BatchSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if !e.Enqueue(testTrace(t)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := e.Stats(); st.Sent != n || st.Dropped != 0 {
		t.Fatalf("stats after drain = %+v, want sent=%d dropped=0", st, n)
	}
	total := 0
	for _, body := range c.accepted() {
		var req struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []struct {
						Name string `json:"name"`
					} `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("decode drained body: %v", err)
		}
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, sp := range ss.Spans {
					if sp.Name == "http.match" {
						total++
					}
				}
			}
		}
	}
	if total != n {
		t.Fatalf("collector received %d traces, want %d", total, n)
	}
}

// TestShutdownAbortsOnDeadline wedges the collector and asserts an
// already-expired Shutdown context aborts the in-flight POST instead of
// hanging, returning the context error.
func TestShutdownAbortsOnDeadline(t *testing.T) {
	stall := make(chan struct{})
	c := collector{stall: stall}
	srv := httptest.NewServer(c.handler())
	defer srv.Close()
	defer close(stall)

	e, err := New(Config{
		Endpoint: srv.URL, BatchSize: 1, Linger: time.Millisecond,
		RequestTimeout: 30 * time.Second, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.Enqueue(testTrace(t))
	waitFor(t, "POST in flight", func() bool { return c.requestCount() >= 0 && len(c.accepted()) == 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = e.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown took %v after its deadline", elapsed)
	}
}

// TestShutdownIdempotent calls Shutdown twice; the second must not panic
// or hang.
func TestShutdownIdempotent(t *testing.T) {
	var c collector
	srv := httptest.NewServer(c.handler())
	defer srv.Close()
	e, err := New(Config{Endpoint: srv.URL})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
