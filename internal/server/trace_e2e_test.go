package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"csce/internal/graph"
	"csce/internal/obs/export"
)

// fakeCollector is an in-process OTLP endpoint that records every accepted
// POST body; when stall is non-nil, handlers block until it closes.
type fakeCollector struct {
	mu     sync.Mutex
	bodies [][]byte
	stall  chan struct{}
}

func (c *fakeCollector) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.stall != nil {
			<-c.stall
		}
		body, _ := io.ReadAll(r.Body)
		c.mu.Lock()
		c.bodies = append(c.bodies, body)
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}
}

// otlpSpans flattens every span the collector has accepted so far.
func (c *fakeCollector) otlpSpans(t *testing.T) []collectedSpan {
	t.Helper()
	c.mu.Lock()
	bodies := make([][]byte, len(c.bodies))
	copy(bodies, c.bodies)
	c.mu.Unlock()
	var out []collectedSpan
	for _, body := range bodies {
		var req struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []collectedSpan `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("decode OTLP body: %v", err)
		}
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				out = append(out, ss.Spans...)
			}
		}
	}
	return out
}

type collectedSpan struct {
	TraceID      string `json:"traceId"`
	SpanID       string `json:"spanId"`
	ParentSpanID string `json:"parentSpanId"`
	Name         string `json:"name"`
	Kind         int    `json:"kind"`
	Attributes   []struct {
		Key   string `json:"key"`
		Value struct {
			IntValue *string `json:"intValue"`
		} `json:"value"`
	} `json:"attributes"`
}

// intAttr returns the span's integer attribute under key, and whether it
// is present.
func (sp collectedSpan) intAttr(t *testing.T, key string) (int64, bool) {
	t.Helper()
	for _, a := range sp.Attributes {
		if a.Key != key || a.Value.IntValue == nil {
			continue
		}
		n, err := strconv.ParseInt(*a.Value.IntValue, 10, 64)
		if err != nil {
			t.Fatalf("%s attribute %s = %q: %v", sp.Name, key, *a.Value.IntValue, err)
		}
		return n, true
	}
	return 0, false
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestShardedMatchExportsOTLPTraceTree is the acceptance path: a sharded
// match against a daemon wired to an OTLP collector must produce ONE trace
// whose span tree reads admission → shard.plan → shard.scatter → one
// shard.local per shard → shard.join → exec → stream, all under the same
// trace ID with consistent parent links. A shard's twig searches record no
// spans: their counts and summed times are attributes of its shard.local.
func TestShardedMatchExportsOTLPTraceTree(t *testing.T) {
	var c fakeCollector
	col := httptest.NewServer(c.handler())
	defer col.Close()
	exp, err := export.New(export.Config{Endpoint: col.URL, Linger: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	base, _ := startShardedServer(t,
		Config{TraceExporter: exp, SlowQueryThreshold: 1}, shardTestGraph(24, 40, 3), shards)

	resp := postMatch(t, base, "sharded", pathPattern3, nil)
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("match response missing X-Trace-Id")
	}
	_, summary := readStream(t, resp)

	wantTID := "0000000000000000" + traceID
	waitForCond(t, "trace at collector", func() bool {
		for _, sp := range c.otlpSpans(t) {
			if sp.TraceID == wantTID && sp.Name == "http.match" {
				return true
			}
		}
		return false
	})

	var spans []collectedSpan
	for _, sp := range c.otlpSpans(t) {
		if sp.TraceID == wantTID {
			spans = append(spans, sp)
		}
	}
	byID := map[string]collectedSpan{}
	byName := map[string][]collectedSpan{}
	for _, sp := range spans {
		if _, dup := byID[sp.SpanID]; dup {
			t.Fatalf("duplicate span ID %s on the wire", sp.SpanID)
		}
		byID[sp.SpanID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
	}

	root := byName["http.match"]
	if len(root) != 1 {
		t.Fatalf("want exactly one root span, got %d", len(root))
	}
	if root[0].Kind != 2 || root[0].ParentSpanID != "" {
		t.Fatalf("root span kind/parent = %d/%q, want 2/\"\"", root[0].Kind, root[0].ParentSpanID)
	}
	rootID := root[0].SpanID

	// Every non-root span must carry a parent that resolves inside this
	// trace (only the root omits parentSpanId).
	for _, sp := range spans {
		if sp.SpanID == rootID {
			continue
		}
		if _, ok := byID[sp.ParentSpanID]; !ok {
			t.Fatalf("span %s (%s) has parent %q outside the trace", sp.Name, sp.SpanID, sp.ParentSpanID)
		}
	}

	// The scatter tree: shard.scatter under the root, one shard.local per
	// shard under the scatter, and shard.plan/shard.join as its siblings.
	for _, name := range []string{"parse", "admission", "shard.plan", "shard.scatter", "shard.join", "exec", "stream"} {
		got := byName[name]
		if len(got) != 1 {
			t.Fatalf("want exactly one %s span, got %d (names: %v)", name, len(got), names(spans))
		}
		if got[0].ParentSpanID != rootID {
			t.Fatalf("%s parent = %s, want root %s", name, got[0].ParentSpanID, rootID)
		}
	}
	scatterID := byName["shard.scatter"][0].SpanID
	locals := byName["shard.local"]
	if len(locals) != shards {
		t.Fatalf("want %d shard.local spans, got %d", shards, len(locals))
	}
	var localSteps int64
	for _, sp := range locals {
		if sp.ParentSpanID != scatterID {
			t.Fatalf("shard.local parent = %s, want shard.scatter %s", sp.ParentSpanID, scatterID)
		}
		for _, key := range []string{"shard", "epoch", "twigs", "rows", "steps", "read_us", "plan_us", "search_us"} {
			if _, ok := sp.intAttr(t, key); !ok {
				t.Fatalf("shard.local %s has no %s attribute", sp.SpanID, key)
			}
		}
		steps, _ := sp.intAttr(t, "steps")
		localSteps += steps
	}
	// A shard's twig searches are summed into its shard.local: no engine
	// span appears, so the span count does not grow with the twig count.
	for _, name := range []string{"core.read", "core.plan", "exec.search"} {
		if n := len(byName[name]); n != 0 {
			t.Fatalf("%d %s spans in a sharded trace (names: %v)", n, name, names(spans))
		}
	}
	if want := 1 + 8 + shards; len(spans) != want {
		t.Fatalf("sharded trace has %d spans, want %d (names: %v)", len(spans), want, names(spans))
	}
	if localSteps == 0 {
		t.Fatal("shard.local spans report no search steps")
	}
	if steps, _ := summary["steps"].(float64); int64(steps) != localSteps {
		t.Fatalf("shard.local steps sum to %d, reply summary says %v", localSteps, summary["steps"])
	}

	// The same trace is retrievable from the ring.
	var traceDoc struct {
		TraceID string `json:"trace_id"`
		Spans   []any  `json:"spans"`
		Tree    struct {
			Name     string           `json:"name"`
			Children []map[string]any `json:"children"`
		} `json:"tree"`
	}
	if err := json.Unmarshal([]byte(getBody(t, base+"/debug/trace/"+traceID)), &traceDoc); err != nil {
		t.Fatalf("decode /debug/trace: %v", err)
	}
	if traceDoc.TraceID != traceID || traceDoc.Tree.Name != "http.match" {
		t.Fatalf("/debug/trace = id %q root %q", traceDoc.TraceID, traceDoc.Tree.Name)
	}
	if len(traceDoc.Tree.Children) == 0 || len(traceDoc.Spans) != len(spans) {
		t.Fatalf("/debug/trace tree has %d children, %d spans (wire had %d)",
			len(traceDoc.Tree.Children), len(traceDoc.Spans), len(spans))
	}
	if resp, err := http.Get(base + "/debug/trace/ffffffffffffffff"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %v status %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// The slowlog entry (threshold 1ns captures everything) links to the
	// trace and records the export verdict.
	var slowlog struct {
		Records []struct {
			TraceID  string `json:"trace_id"`
			Exported bool   `json:"exported"`
			TraceURL string `json:"trace_url"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(getBody(t, base+"/debug/slowlog")), &slowlog); err != nil {
		t.Fatal(err)
	}
	foundSlow := false
	for _, rec := range slowlog.Records {
		if rec.TraceID == traceID {
			foundSlow = true
			if !rec.Exported {
				t.Fatal("slowlog entry not marked exported despite a healthy collector")
			}
			if rec.TraceURL != "/debug/trace/"+traceID {
				t.Fatalf("slowlog trace_url = %q", rec.TraceURL)
			}
		}
	}
	if !foundSlow {
		t.Fatal("no slowlog entry for the traced query")
	}

	// Self-telemetry: JSON metrics show the export counters and runtime
	// gauges; the Prometheus exposition carries the same families.
	waitForCond(t, "sent counter", func() bool {
		doc := getMetrics(t, base)
		te, _ := doc["trace_export"].(map[string]any)
		if te == nil {
			return false
		}
		sent, _ := te["sent"].(float64)
		return sent >= 1
	})
	doc := getMetrics(t, base)
	te := doc["trace_export"].(map[string]any)
	if dropped, _ := te["dropped"].(float64); dropped != 0 {
		t.Fatalf("dropped = %v under normal load", dropped)
	}
	if rl, _ := doc["trace_ring_len"].(float64); rl < 1 {
		t.Fatalf("trace_ring_len = %v", rl)
	}
	rt, _ := doc["runtime"].(map[string]any)
	if rt == nil {
		t.Fatal("metrics missing runtime block")
	}
	if g, _ := rt["goroutines"].(float64); g <= 0 {
		t.Fatalf("runtime goroutines = %v", g)
	}
	prom := getBody(t, base+"/metrics?format=prom")
	for _, want := range []string{
		"# TYPE csce_trace_export_sent counter",
		"csce_trace_export_queued",
		"csce_trace_export_dropped 0",
		"csce_trace_export_latency_seconds_bucket",
		"csce_trace_ring_len",
		"# TYPE csce_goroutines gauge",
		"csce_heap_bytes",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
}

func names(spans []collectedSpan) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestStalledCollectorNeverBlocksQueries wedges the collector: queries
// must keep serving at full speed while the exporter queue overflows and
// counts drops.
func TestStalledCollectorNeverBlocksQueries(t *testing.T) {
	stall := make(chan struct{})
	c := fakeCollector{stall: stall}
	col := httptest.NewServer(c.handler())
	defer col.Close()
	defer close(stall)

	exp, err := export.New(export.Config{
		Endpoint: col.URL, QueueSize: 2, BatchSize: 1,
		Linger: time.Millisecond, MaxAttempts: 1, RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, Config{TraceExporter: exp}, map[string]*graph.Graph{"g": pathOf(6)})

	const queries = 24
	start := time.Now()
	for i := 0; i < queries; i++ {
		readStream(t, postMatch(t, base, "g", pathPattern2, nil))
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("%d queries took %v against a stalled collector", queries, elapsed)
	}
	doc := getMetrics(t, base)
	if got := metric(t, doc, "queries_total"); got != queries {
		t.Fatalf("queries_total = %v, want %d", got, queries)
	}
	te, _ := doc["trace_export"].(map[string]any)
	if te == nil {
		t.Fatal("metrics missing trace_export block")
	}
	dropped, _ := te["dropped"].(float64)
	if dropped == 0 {
		t.Fatal("no drops counted with a 2-deep queue and a stalled collector")
	}
}

// TestMutateAndSubscribeCarryTraceIDs covers the satellite: rejected
// mutations and subscription streams carry the trace ID in their response
// bodies, and both finish traces into the ring.
func TestMutateAndSubscribeCarryTraceIDs(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{"g": pathOf(6)})

	// A rejected mutation: 422 body carries the trace_id.
	resp, doc := postMutate(t, base, "g", `{"mutations":[{"op":"insert_edge","src":0,"dst":99}]}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad mutate status = %d, want 422", resp.StatusCode)
	}
	tid, _ := doc["trace_id"].(string)
	if tid == "" || tid != resp.Header.Get("X-Trace-Id") {
		t.Fatalf("422 trace_id = %q, header %q", tid, resp.Header.Get("X-Trace-Id"))
	}

	// An accepted mutation: the ring retains its http.mutate trace.
	resp, doc = postMutate(t, base, "g", `{"mutations":[{"op":"insert_edge","src":0,"dst":2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d", resp.StatusCode)
	}
	tid, _ = doc["trace_id"].(string)
	if tid == "" {
		t.Fatalf("mutate response missing trace_id: %v", doc)
	}
	var mutTrace struct {
		Tree struct {
			Name string `json:"name"`
		} `json:"tree"`
	}
	if err := json.Unmarshal([]byte(getBody(t, base+"/debug/trace/"+tid)), &mutTrace); err != nil {
		t.Fatal(err)
	}
	if mutTrace.Tree.Name != "http.mutate" {
		t.Fatalf("mutation trace root = %q", mutTrace.Tree.Name)
	}

	// A subscription: the hello line carries the trace_id, and when the
	// client disconnects the finished http.subscribe trace reaches the ring.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/graphs/g/subscribe?pattern="+url.QueryEscape(pathPattern2), nil)
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	subTID := sresp.Header.Get("X-Trace-Id")
	line := make([]byte, 4096)
	n, err := sresp.Body.Read(line)
	if err != nil {
		t.Fatalf("read hello line: %v", err)
	}
	var hello map[string]any
	if err := json.Unmarshal(line[:n], &hello); err != nil {
		t.Fatalf("decode hello %q: %v", line[:n], err)
	}
	if got, _ := hello["trace_id"].(string); got != subTID || got == "" {
		t.Fatalf("hello trace_id = %q, header %q", got, subTID)
	}
	cancel()
	sresp.Body.Close()
	waitForCond(t, "subscribe trace in ring", func() bool {
		resp, err := http.Get(base + "/debug/trace/" + subTID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var tdoc struct {
			Tree struct {
				Name string `json:"name"`
			} `json:"tree"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&tdoc); err != nil {
			return false
		}
		return tdoc.Tree.Name == "http.subscribe"
	})
}
