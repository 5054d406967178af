package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"csce/internal/core"
	"csce/internal/graph"
)

const (
	pathPattern2 = "t undirected\nv 0 0\nv 1 0\ne 0 1\n"
	pathPattern3 = "t undirected\nv 0 0\nv 1 0\nv 2 0\ne 0 1\ne 1 2\n"
	triPattern   = "t undirected\nv 0 0\nv 1 0\nv 2 0\ne 0 1\ne 1 2\ne 0 2\n"
	cliq6Pattern = "t undirected\n" +
		"v 0 0\nv 1 0\nv 2 0\nv 3 0\nv 4 0\nv 5 0\n" +
		"e 0 1\ne 0 2\ne 0 3\ne 0 4\ne 0 5\n" +
		"e 1 2\ne 1 3\ne 1 4\ne 1 5\n" +
		"e 2 3\ne 2 4\ne 2 5\n" +
		"e 3 4\ne 3 5\n" +
		"e 4 5\n"
)

// startServer boots a daemon on a random port with the given graphs and
// tears it down with the test.
func startServer(t *testing.T, cfg Config, graphs map[string]*graph.Graph) (string, *Server) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	for name, g := range graphs {
		if g.Names == nil {
			g.Names = NumericLabels(g)
		}
		if _, err := s.Registry().Add(name, core.NewEngine(g)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return "http://" + addr, s
}

func postMatch(t *testing.T, base, graphName, pattern string, params url.Values) *http.Response {
	t.Helper()
	u := fmt.Sprintf("%s/v1/graphs/%s/match?%s", base, graphName, params.Encode())
	resp, err := http.Post(u, "text/plain", strings.NewReader(pattern))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream consumes an NDJSON match response, returning the embedding
// lines and the trailing summary.
func readStream(t *testing.T, resp *http.Response) (embeddings []map[string]any, summary map[string]any) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if done, _ := doc["done"].(bool); done {
			summary = doc
		} else {
			embeddings = append(embeddings, doc)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return embeddings, summary
}

func getMetrics(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func metric(t *testing.T, doc map[string]any, key string) float64 {
	t.Helper()
	v, ok := doc[key].(float64)
	if !ok {
		t.Fatalf("metric %q missing or not numeric: %v", key, doc[key])
	}
	return v
}

func TestMatchStreamsExactLimit(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{"tiny": graph.Clique(12, 0)})
	resp := postMatch(t, base, "tiny", pathPattern3, url.Values{"limit": {"5"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines, summary := readStream(t, resp)
	if len(lines) != 5 {
		t.Fatalf("streamed %d embeddings, want exactly 5", len(lines))
	}
	if summary == nil || summary["limit_hit"] != true {
		t.Fatalf("summary missing or limit_hit unset: %v", summary)
	}
	if got := summary["embeddings"].(float64); got != 5 {
		t.Fatalf("summary counted %v embeddings, want 5", got)
	}
	// Each embedding maps the 3 pattern vertices.
	if emb := lines[0]["embedding"].([]any); len(emb) != 3 {
		t.Fatalf("embedding arity %d, want 3", len(emb))
	}
}

func TestMatchFullEnumerationIsExact(t *testing.T) {
	// path-3 in K12: 12*11*10 ordered mappings.
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{"tiny": graph.Clique(12, 0)})
	resp := postMatch(t, base, "tiny", pathPattern3, nil)
	lines, summary := readStream(t, resp)
	if len(lines) != 1320 {
		t.Fatalf("streamed %d embeddings, want 1320", len(lines))
	}
	if summary["limit_hit"] != false || summary["cancelled"] != false {
		t.Fatalf("unexpected summary: %v", summary)
	}
}

func TestPlanCacheHitOnRepeatedPattern(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{"tiny": graph.Clique(10, 0)})
	_, first := readStream(t, postMatch(t, base, "tiny", triPattern, url.Values{"limit": {"3"}}))
	if first["plan_cache"] != "miss" {
		t.Fatalf("first query should miss the plan cache: %v", first["plan_cache"])
	}
	_, second := readStream(t, postMatch(t, base, "tiny", triPattern, url.Values{"limit": {"3"}}))
	if second["plan_cache"] != "hit" {
		t.Fatalf("repeated pattern should hit the plan cache: %v", second["plan_cache"])
	}
	m := getMetrics(t, base)
	if metric(t, m, "plan_cache_hits") < 1 {
		t.Fatalf("plan_cache_hits did not move: %v", m)
	}
	if metric(t, m, "plan_cache_size") < 1 {
		t.Fatalf("plan_cache_size did not move: %v", m)
	}
	// A different pattern (or variant) must not share the entry.
	_, other := readStream(t, postMatch(t, base, "tiny", triPattern,
		url.Values{"limit": {"3"}, "variant": {"homo"}}))
	if other["plan_cache"] != "miss" {
		t.Fatalf("different variant must miss the plan cache: %v", other["plan_cache"])
	}
}

func TestTimeoutStopsLargeQueryPromptly(t *testing.T) {
	// Clique-6 in K40 has ~2.8e9 mappings: without cancellation this
	// enumeration runs for hours. MaxLimit is raised so the limit cannot
	// stop it first; only the 50ms deadline can.
	base, _ := startServer(t, Config{MaxLimit: 200_000_000, MaxTimeout: 10 * time.Minute},
		map[string]*graph.Graph{"boom": graph.Clique(40, 0)})
	start := time.Now()
	resp := postMatch(t, base, "boom", cliq6Pattern, url.Values{"timeout_ms": {"50"}})
	_, summary := readStream(t, resp)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("timeout_ms=50 returned after %v; search not stopped", elapsed)
	}
	if summary == nil || summary["timed_out"] != true {
		t.Fatalf("summary missing timed_out: %v", summary)
	}
	m := getMetrics(t, base)
	if metric(t, m, "queries_timed_out") != 1 {
		t.Fatalf("queries_timed_out did not move: %v", m)
	}
	if metric(t, m, "in_flight") != 0 {
		t.Fatalf("query still in flight after timeout: %v", m)
	}
}

func TestClientDisconnectCancelsSearch(t *testing.T) {
	base, s := startServer(t,
		Config{MaxLimit: 200_000_000, DefaultTimeout: 5 * time.Minute, MaxTimeout: 10 * time.Minute},
		map[string]*graph.Graph{"boom": graph.Clique(40, 0)})
	resp := postMatch(t, base, "boom", cliq6Pattern, nil)
	// Read one embedding to be sure the search is live mid-stream, then
	// hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first embedding line: %v", err)
	}
	resp.Body.Close()

	// The handler notices the dead client (context cancellation or write
	// error) and the cooperative flag stops the backtracking loop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := getMetrics(t, base)
		if metric(t, m, "queries_cancelled") >= 1 && metric(t, m, "in_flight") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("search not cancelled after disconnect: %v (in_flight=%v)",
				m["queries_cancelled"], m["in_flight"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = s
}

func TestAdmissionRejectsWith429WhenQueueFull(t *testing.T) {
	base, _ := startServer(t,
		Config{MatchSlots: 1, QueueDepth: -1, MaxLimit: 200_000_000,
			DefaultTimeout: 5 * time.Minute, MaxTimeout: 10 * time.Minute},
		map[string]*graph.Graph{"boom": graph.Clique(40, 0)})

	// Occupy the only slot with a long-running streaming query.
	hog := postMatch(t, base, "boom", cliq6Pattern, nil)
	defer hog.Body.Close()
	br := bufio.NewReader(hog.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("hog query did not start streaming: %v", err)
	}

	resp := postMatch(t, base, "boom", pathPattern2, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 must carry Retry-After")
	}
	m := getMetrics(t, base)
	if metric(t, m, "queries_rejected") != 1 {
		t.Fatalf("queries_rejected did not move: %v", m)
	}
}

func TestConcurrentMatchesAreExactAndCounted(t *testing.T) {
	base, s := startServer(t, Config{MatchSlots: 4},
		map[string]*graph.Graph{"tiny": graph.Clique(12, 0)})
	want := map[string]int{pathPattern2: 132, pathPattern3: 1320, triPattern: 1320}
	patterns := []string{pathPattern2, pathPattern3, triPattern}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pattern := patterns[i%len(patterns)]
			resp, err := http.Post(base+"/v1/graphs/tiny/match", "text/plain", strings.NewReader(pattern))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			lines := strings.Count(string(body), "\n") - 1 // minus summary
			if lines != want[pattern] {
				errs <- fmt.Errorf("goroutine %d: got %d embeddings, want %d", i, lines, want[pattern])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := getMetrics(t, base)
	if metric(t, m, "queries_ok") != goroutines {
		t.Fatalf("queries_ok = %v, want %d", m["queries_ok"], goroutines)
	}
	if metric(t, m, "embeddings_emitted") == 0 || metric(t, m, "exec_steps") == 0 {
		t.Fatalf("work counters did not move: %v", m)
	}
	ent, _ := s.Registry().Get("tiny")
	if ent.Queries() != goroutines {
		t.Fatalf("registry counted %d queries, want %d", ent.Queries(), goroutines)
	}
}

func TestGraphsAndHealthEndpoints(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{
		"a": graph.Clique(5, 0),
		"b": graph.Clique(6, 0),
	})
	resp, err := http.Get(base + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Graphs []struct {
			Name     string `json:"name"`
			Vertices int    `json:"vertices"`
			Clusters int    `json:"clusters"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(doc.Graphs) != 2 || doc.Graphs[0].Name != "a" || doc.Graphs[1].Name != "b" {
		t.Fatalf("graph list wrong: %+v", doc.Graphs)
	}
	if doc.Graphs[0].Vertices != 5 || doc.Graphs[0].Clusters == 0 {
		t.Fatalf("graph stats wrong: %+v", doc.Graphs[0])
	}

	h, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", h.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{"tiny": graph.Clique(5, 0)})
	cases := []struct {
		name    string
		graph   string
		pattern string
		params  url.Values
		status  int
	}{
		{"unknown graph", "nope", pathPattern2, nil, http.StatusNotFound},
		{"bad pattern", "tiny", "not a graph", nil, http.StatusBadRequest},
		{"bad variant", "tiny", pathPattern2, url.Values{"variant": {"zig"}}, http.StatusBadRequest},
		{"bad limit", "tiny", pathPattern2, url.Values{"limit": {"x"}}, http.StatusBadRequest},
		{"directedness mismatch", "tiny", "t directed\nv 0 0\nv 1 0\ne 0 1\n", nil, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postMatch(t, base, tc.graph, tc.pattern, tc.params)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	m := getMetrics(t, base)
	if metric(t, m, "queries_bad_request") != float64(len(cases)) {
		t.Fatalf("queries_bad_request = %v, want %d", m["queries_bad_request"], len(cases))
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	base, s := startServer(t, Config{MaxLimit: 200_000_000,
		DefaultTimeout: 5 * time.Minute, MaxTimeout: 10 * time.Minute},
		map[string]*graph.Graph{"boom": graph.Clique(40, 0)})

	resp := postMatch(t, base, "boom", cliq6Pattern, nil)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	// The drain budget expires with the query still streaming; Shutdown
	// then closes the listener, which cancels the query's context and the
	// cooperative flag stops the search — the daemon never hangs on exit.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}
}
