package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"csce/internal/graph"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestMetricsDocumentSchema pins the /metrics contract: counters and gauges
// stay at the top level (what existing scrapers read), and the latency
// block nests per-phase and per-endpoint histogram quantiles.
func TestMetricsDocumentSchema(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{"tiny": graph.Clique(8, 0)})
	// One real query so the phase histograms have observations.
	_, summary := readStream(t, postMatch(t, base, "tiny", pathPattern2, nil))
	if summary == nil {
		t.Fatal("no summary line")
	}

	doc := getMetrics(t, base)
	topLevel := []string{
		"queries_total", "queries_ok", "queries_rejected", "queries_cancelled",
		"queries_timed_out", "queries_bad_request", "queries_errored", "slow_queries",
		"embeddings_emitted", "exec_steps", "candidate_reuses", "exec_micros", "plan_micros",
		"plan_cache_size", "plan_cache_hits", "plan_cache_misses",
		"in_flight", "queued", "match_slots", "queue_depth", "graphs", "uptime_seconds",
		"slow_query_threshold_ms", "slowlog_len",
	}
	for _, key := range topLevel {
		if _, ok := doc[key]; !ok {
			t.Errorf("/metrics missing top-level key %q", key)
		}
	}

	liveDoc, ok := doc["live"].(map[string]any)["tiny"].(map[string]any)
	if !ok {
		t.Fatalf("live.tiny block missing or not an object: %v", doc["live"])
	}
	for _, key := range []string{
		"epoch", "last_seq", "wal_retained", "wal_truncated", "oldest_resumable_seq",
		"wal_disk_segments", "wal_disk_bytes", "wal_fsyncs", "wal_checkpoints", "checkpoint_failures",
	} {
		if _, ok := liveDoc[key]; !ok {
			t.Errorf("/metrics live block missing %q", key)
		}
	}
	for _, gone := range []string{
		"wal_chain_segments", "wal_chain_bytes", "resume_log_segments",
		"resume_log_bytes", "resume_log_rebases", "resume_log_failures",
	} {
		if _, ok := liveDoc[gone]; ok {
			t.Errorf("/metrics live block still carries %q", gone)
		}
	}

	latency, ok := doc["latency"].(map[string]any)
	if !ok {
		t.Fatalf("latency block missing or not an object: %v", doc["latency"])
	}
	phases, ok := latency["phases"].(map[string]any)
	if !ok {
		t.Fatalf("latency.phases missing: %v", latency)
	}
	histKeys := []string{"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"}
	for _, phase := range []string{"admission", "plan", "exec", "stream", "total"} {
		h, ok := phases[phase].(map[string]any)
		if !ok {
			t.Fatalf("latency.phases.%s missing: %v", phase, phases)
		}
		for _, key := range histKeys {
			if _, ok := h[key]; !ok {
				t.Errorf("latency.phases.%s missing %q: %v", phase, key, h)
			}
		}
		// The match query passed through every phase exactly once.
		if count := h["count"].(float64); count != 1 {
			t.Errorf("latency.phases.%s.count = %v, want 1", phase, count)
		}
	}
	endpoints, ok := latency["endpoints"].(map[string]any)
	if !ok {
		t.Fatalf("latency.endpoints missing: %v", latency)
	}
	for _, ep := range []string{"match", "graphs", "metrics", "healthz", "slowlog"} {
		if _, ok := endpoints[ep].(map[string]any); !ok {
			t.Errorf("latency.endpoints.%s missing: %v", ep, endpoints)
		}
	}
	if c := endpoints["match"].(map[string]any)["count"].(float64); c != 1 {
		t.Errorf("endpoint match count = %v, want 1", c)
	}
	// p50 ≤ p90 ≤ p99 ≤ max on the total phase.
	th := phases["total"].(map[string]any)
	p50, p90 := th["p50_ms"].(float64), th["p90_ms"].(float64)
	p99, max := th["p99_ms"].(float64), th["max_ms"].(float64)
	if p50 > p90 || p90 > p99 || p99 > max {
		t.Errorf("total quantiles not monotone: p50=%v p90=%v p99=%v max=%v", p50, p90, p99, max)
	}
}

// TestTraceIDCorrelation verifies the one-grep contract: the same 16-hex
// trace ID appears in the X-Trace-Id response header, the NDJSON summary,
// and the structured log line for the query.
func TestTraceIDCorrelation(t *testing.T) {
	logBuf := &syncBuffer{}
	base, _ := startServer(t,
		Config{Logger: slog.New(slog.NewTextHandler(logBuf, nil))},
		map[string]*graph.Graph{"tiny": graph.Clique(8, 0)})

	resp := postMatch(t, base, "tiny", pathPattern2, nil)
	headerID := resp.Header.Get("X-Trace-Id")
	if !traceIDRe.MatchString(headerID) {
		t.Fatalf("X-Trace-Id %q is not 16 hex chars", headerID)
	}
	_, summary := readStream(t, resp)
	if summary["trace_id"] != headerID {
		t.Fatalf("summary trace_id %v != header %q", summary["trace_id"], headerID)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "trace_id="+headerID) {
		t.Fatalf("log output lacks trace_id=%s:\n%s", headerID, logged)
	}
	if !strings.Contains(logged, "outcome=ok") {
		t.Fatalf("log output lacks outcome=ok:\n%s", logged)
	}

	// A second query gets a distinct ID.
	resp2 := postMatch(t, base, "tiny", pathPattern2, nil)
	second := resp2.Header.Get("X-Trace-Id")
	readStream(t, resp2)
	if second == headerID {
		t.Fatalf("two queries share trace ID %q", second)
	}
}

// TestProfileInlineOutput exercises ?profile=1 — the EXPLAIN ANALYZE path:
// the summary gains a per-level profile (one row per plan position, with
// the SCE counters) and the trace's phase spans, including the spans
// recorded inside core and exec, proving the context propagated the trace
// through every layer.
func TestProfileInlineOutput(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{"tiny": graph.Clique(8, 0)})

	resp := postMatch(t, base, "tiny", pathPattern3, url.Values{"profile": {"1"}})
	_, summary := readStream(t, resp)
	if summary == nil {
		t.Fatal("no summary line")
	}
	levels, ok := summary["profile"].([]any)
	if !ok || len(levels) != 3 {
		t.Fatalf("profile should have 3 levels (one per pattern vertex): %v", summary["profile"])
	}
	var steps float64
	for i, raw := range levels {
		lv, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("profile level %d not an object: %v", i, raw)
		}
		for _, key := range []string{"pos", "vertex", "steps", "candidate_builds",
			"candidate_reuses", "nec_shares", "candidate_total", "factorized"} {
			if _, ok := lv[key]; !ok {
				t.Errorf("profile level %d missing %q: %v", i, key, lv)
			}
		}
		if lv["pos"].(float64) != float64(i) {
			t.Errorf("profile level %d has pos %v", i, lv["pos"])
		}
		steps += lv["steps"].(float64)
	}
	if steps == 0 {
		t.Error("profile recorded zero steps for a non-empty search")
	}
	if steps != summary["steps"].(float64) {
		t.Errorf("per-level steps sum to %v, summary says %v", steps, summary["steps"])
	}

	spans, ok := summary["spans"].(map[string]any)
	if !ok {
		t.Fatalf("spans missing from profiled summary: %v", summary)
	}
	for _, name := range []string{"parse", "admission", "plan", "core.read", "core.plan", "exec.search"} {
		if _, ok := spans[name]; !ok {
			t.Errorf("spans missing %q (trace did not propagate): %v", name, spans)
		}
	}

	// Without the flag neither key appears.
	_, plain := readStream(t, postMatch(t, base, "tiny", pathPattern3, nil))
	if _, ok := plain["profile"]; ok {
		t.Error("profile present without ?profile=1")
	}
	if _, ok := plain["spans"]; ok {
		t.Error("spans present without ?profile=1")
	}

	// A malformed value is a 400, not a silent default.
	bad := postMatch(t, base, "tiny", pathPattern3, url.Values{"profile": {"2"}})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("profile=2 gave status %d, want 400", bad.StatusCode)
	}
}

// TestSlowQueryCaptured drops the threshold so every query qualifies and
// verifies the full slow-query path: capture with the query's trace ID
// (matching the response header), phase spans, plan summary, and per-level
// profile; the slow_queries counter and the warn-level log line move too.
func TestSlowQueryCaptured(t *testing.T) {
	logBuf := &syncBuffer{}
	base, _ := startServer(t,
		Config{SlowQueryThreshold: time.Nanosecond,
			Logger: slog.New(slog.NewTextHandler(logBuf, nil))},
		map[string]*graph.Graph{"tiny": graph.Clique(8, 0)})

	resp := postMatch(t, base, "tiny", triPattern, nil)
	headerID := resp.Header.Get("X-Trace-Id")
	readStream(t, resp)

	slowResp, err := http.Get(base + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer slowResp.Body.Close()
	var doc struct {
		ThresholdMs float64 `json:"threshold_ms"`
		Total       uint64  `json:"total"`
		Records     []struct {
			Seq     uint64         `json:"seq"`
			TraceID string         `json:"trace_id"`
			Graph   string         `json:"graph"`
			Outcome string         `json:"outcome"`
			Spans   []any          `json:"spans"`
			Detail  map[string]any `json:"detail"`
		} `json:"records"`
	}
	if err := json.NewDecoder(slowResp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 1 || len(doc.Records) != 1 {
		t.Fatalf("slowlog should hold exactly the one query: %+v", doc)
	}
	rec := doc.Records[0]
	if rec.TraceID != headerID {
		t.Fatalf("slowlog trace_id %q != response header %q", rec.TraceID, headerID)
	}
	if rec.Graph != "tiny" || rec.Outcome != "ok" {
		t.Fatalf("slowlog record wrong: %+v", rec)
	}
	if len(rec.Spans) == 0 {
		t.Fatal("slowlog record has no spans")
	}
	for _, key := range []string{"pattern", "params", "plan", "profile", "steps"} {
		if _, ok := rec.Detail[key]; !ok {
			t.Errorf("slowlog detail missing %q: %v", key, rec.Detail)
		}
	}
	prof, ok := rec.Detail["profile"].([]any)
	if !ok || len(prof) != 3 {
		t.Fatalf("slowlog profile should have 3 levels: %v", rec.Detail["profile"])
	}

	m := getMetrics(t, base)
	if metric(t, m, "slow_queries") != 1 {
		t.Fatalf("slow_queries = %v, want 1", m["slow_queries"])
	}
	if metric(t, m, "slowlog_len") != 1 {
		t.Fatalf("slowlog_len = %v, want 1", m["slowlog_len"])
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "slow query captured") || !strings.Contains(logged, "trace_id="+headerID) {
		t.Fatalf("missing slow-query warn line for %s:\n%s", headerID, logged)
	}
}

// TestSlowLogDisabled pins that a negative threshold turns capture off.
func TestSlowLogDisabled(t *testing.T) {
	base, _ := startServer(t, Config{SlowQueryThreshold: -1},
		map[string]*graph.Graph{"tiny": graph.Clique(8, 0)})
	readStream(t, postMatch(t, base, "tiny", pathPattern2, nil))
	m := getMetrics(t, base)
	if metric(t, m, "slow_queries") != 0 || metric(t, m, "slowlog_len") != 0 {
		t.Fatalf("slowlog captured with capture disabled: %v", m)
	}
	if metric(t, m, "slow_query_threshold_ms") != 0 {
		t.Fatalf("disabled threshold should render 0: %v", m["slow_query_threshold_ms"])
	}
}
