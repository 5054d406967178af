package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"csce/internal/core"
	"csce/internal/graph"
)

// impossiblePattern asks for an edge between label-1 vertices; every test
// graph here is all label 0, so the nbr-label filter proves it empty.
const impossiblePattern = "t undirected\nv 0 1\nv 1 1\ne 0 1\n"

// cycleGraph builds an unlabeled undirected n-cycle.
func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(false)
	b.AddVertices(n, 0)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n), 0)
	}
	return b.MustBuild()
}

// prefilterMetric digs one per-filter counter out of the /metrics JSON doc.
func prefilterMetric(t *testing.T, doc map[string]any, family, filter string) float64 {
	t.Helper()
	fam, ok := doc[family].(map[string]any)
	if !ok {
		t.Fatalf("/metrics missing %q: %v", family, doc[family])
	}
	v, ok := fam[filter].(float64)
	if !ok {
		t.Fatalf("/metrics %s missing filter %q: %v", family, filter, fam)
	}
	return v
}

// histCount reads latency.<family>.<member>.count from the /metrics doc.
func histCount(t *testing.T, doc map[string]any, family, member string) float64 {
	t.Helper()
	lat := doc["latency"].(map[string]any)
	fam, ok := lat[family].(map[string]any)
	if !ok {
		t.Fatalf("latency doc missing family %q", family)
	}
	h, ok := fam[member].(map[string]any)
	if !ok {
		t.Fatalf("latency.%s missing member %q: %v", family, member, fam)
	}
	return h["count"].(float64)
}

// TestPrefilterRejectEndToEnd drives the single-store reject path over
// HTTP: a label-impossible query returns a normal 200 summary naming the
// rejecting filter (never a silent empty), the per-filter counters move,
// and an admitted-but-empty query is tallied as a false admit.
func TestPrefilterRejectEndToEnd(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{
		"k6": graph.Clique(6, 0),
		"c4": cycleGraph(4),
	})

	resp := postMatch(t, base, "k6", impossiblePattern, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rejected query status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("rejected query missing X-Trace-Id header")
	}
	embeddings, sum := readStream(t, resp)
	if len(embeddings) != 0 {
		t.Fatalf("rejected query streamed %d embeddings", len(embeddings))
	}
	if sum == nil {
		t.Fatal("rejected query returned no summary line")
	}
	if sum["rejected_by"] != "nbr-label" {
		t.Fatalf("rejected_by = %v, want nbr-label (summary %v)", sum["rejected_by"], sum)
	}
	if sum["count"].(float64) != 0 || sum["embeddings"].(float64) != 0 {
		t.Fatalf("reject summary counts non-zero: %v", sum)
	}
	reason, _ := sum["reason"].(string)
	if !strings.Contains(reason, "no edge between labels") {
		t.Fatalf("reject reason %q not machine-readable", reason)
	}

	doc := getMetrics(t, base)
	if got := prefilterMetric(t, doc, "prefilter_checks", "nbr-label"); got < 1 {
		t.Errorf("prefilter_checks[nbr-label] = %v, want >= 1", got)
	}
	if got := prefilterMetric(t, doc, "prefilter_rejects", "nbr-label"); got != 1 {
		t.Errorf("prefilter_rejects[nbr-label] = %v, want 1", got)
	}

	// A triangle admits against C4 (labels, pairs, degrees, and WL-1 all
	// satisfied) but the executor proves it empty: a false admit charged
	// to the deepest filter, wl1.
	tri := postMatch(t, base, "c4", triPattern, nil)
	if _, triSum := readStream(t, tri); triSum["rejected_by"] != nil {
		t.Fatalf("triangle on C4 should admit, got rejected_by=%v", triSum["rejected_by"])
	} else if triSum["embeddings"].(float64) != 0 {
		t.Fatalf("triangle on C4 found %v embeddings, want 0", triSum["embeddings"])
	}
	doc = getMetrics(t, base)
	if got := prefilterMetric(t, doc, "prefilter_false_admits", "wl1"); got != 1 {
		t.Errorf("prefilter_false_admits[wl1] = %v, want 1", got)
	}

	// An admitted query with results is not a false admit.
	if n := matchCount(t, base, "c4", pathPattern2); n == 0 {
		t.Fatal("path-2 on C4 found nothing")
	}
	doc = getMetrics(t, base)
	if got := prefilterMetric(t, doc, "prefilter_false_admits", "wl1"); got != 1 {
		t.Errorf("false_admits moved on a non-empty query: %v", got)
	}

	// Signature maintenance rides the WAL histogram family.
	if resp, mdoc := postMutate(t, base, "c4", `{"mutations":[{"op":"delete_edge","src":0,"dst":1}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %v", resp.StatusCode, mdoc)
	}
	doc = getMetrics(t, base)
	if got := histCount(t, doc, "wal", "signature"); got < 1 {
		t.Errorf("latency.wal.signature count = %v, want >= 1 after a commit", got)
	}
}

// TestPrefilterDisabled proves -prefilter=off is a real kill switch: the
// same impossible query executes (empty, no rejected_by) and no prefilter
// counter moves.
func TestPrefilterDisabled(t *testing.T) {
	base, _ := startServer(t, Config{DisablePrefilter: true}, map[string]*graph.Graph{
		"k6": graph.Clique(6, 0),
	})
	_, sum := readStream(t, postMatch(t, base, "k6", impossiblePattern, nil))
	if sum["rejected_by"] != nil {
		t.Fatalf("prefilter disabled but query rejected: %v", sum)
	}
	if sum["embeddings"].(float64) != 0 {
		t.Fatalf("impossible query found embeddings: %v", sum)
	}
	doc := getMetrics(t, base)
	for _, fam := range []string{"prefilter_checks", "prefilter_rejects", "prefilter_false_admits"} {
		for f, v := range doc[fam].(map[string]any) {
			if v.(float64) != 0 {
				t.Errorf("%s[%s] = %v with prefilter disabled", fam, f, v)
			}
		}
	}
}

// TestPrefilterShardedE2E is the issue's acceptance scenario: against a
// live-mutating sharded graph, label-impossible queries are rejected
// before the scatter — visible in the reject counters and in a scatter
// histogram that does not move — with zero false rejects, and the reject
// ratio over the impossible workload is at least 90%.
func TestPrefilterShardedE2E(t *testing.T) {
	base, _ := startShardedServer(t, Config{}, shardTestGraph(40, 50, 7), 4)

	scatterBefore := histCount(t, getMetrics(t, base), "shard", "scatter")

	const rounds = 20
	rejected := 0
	for i := 0; i < rounds; i++ {
		// Interleave mutations so signatures are checked mid-ingest: drop a
		// ring edge, then put it back two rounds later.
		if i%2 == 0 {
			r := i / 2
			op := "delete_edge"
			if i%4 == 2 {
				op, r = "insert_edge", r-1
			}
			body := fmt.Sprintf(`{"mutations":[{"op":%q,"src":%d,"dst":%d}]}`, op, r, r+1)
			if resp, doc := postMutate(t, base, "sharded", body); resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d mutate: %d %v", i, resp.StatusCode, doc)
			}
		}
		_, sum := readStream(t, postMatch(t, base, "sharded", impossiblePattern, nil))
		if sum["rejected_by"] != nil {
			rejected++
			if sum["embeddings"].(float64) != 0 {
				t.Fatalf("round %d: reject with embeddings: %v", i, sum)
			}
			if sum["sharded"] != true {
				t.Fatalf("round %d: sharded reject summary missing sharded flag: %v", i, sum)
			}
		}
	}
	if ratio := float64(rejected) / rounds; ratio < 0.9 {
		t.Fatalf("reject ratio %.2f, want >= 0.9", ratio)
	}

	doc := getMetrics(t, base)
	if got := histCount(t, doc, "shard", "scatter"); got != scatterBefore {
		t.Fatalf("rejected queries scattered: scatter count %v -> %v", scatterBefore, got)
	}
	if got := prefilterMetric(t, doc, "prefilter_rejects", "nbr-label"); got < rounds {
		t.Errorf("prefilter_rejects[nbr-label] = %v, want >= %d", got, rounds)
	}

	// Zero false rejects: every pattern the executor can satisfy must be
	// admitted, and the scatter path still works after all that ingest.
	if n := matchCount(t, base, "sharded", pathPattern2); n == 0 {
		t.Fatal("possible pattern found nothing after mutations")
	}
	if got := histCount(t, getMetrics(t, base), "shard", "scatter"); got <= scatterBefore {
		t.Fatal("admitted query did not scatter (counter dead?)")
	}

	// The Prometheus rendering carries the same counters, labeled per
	// filter, plus the signature-maintenance histogram.
	prom := getBody(t, base+"/metrics?format=prom")
	for _, want := range []string{
		`csce_prefilter_checks{filter="nbr-label"}`,
		`csce_prefilter_rejects{filter="nbr-label"}`,
		`csce_prefilter_false_admits{filter="wl1"}`,
		`csce_wal_latency_seconds_bucket{op="signature"`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %s", want)
		}
	}

	// Vertex-induced on a sharded graph keeps its 422 contract even for
	// label-impossible patterns: unsupported variant beats "no results".
	resp := postMatch(t, base, "sharded", impossiblePattern, url.Values{"variant": {"vertex"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("sharded vertex-induced status %d, want 422", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestPrefilterReasonWhileInterning renders reject reasons while other
// queries intern new label names into the same table. Every query here
// both interns (its labels are new) and rejects (no data edge carries
// them), so under -race a reason read outside the label-table lock races
// with the other client's parse.
func TestPrefilterReasonWhileInterning(t *testing.T) {
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	g := cycleGraph(6)
	g.Names = NumericLabels(g)
	if _, err := s.Registry().Add("ring", core.NewEngine(g)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pattern := fmt.Sprintf("t undirected\nv 0 a%d-%d\nv 1 b%d-%d\ne 0 1\n", c, i, c, i)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs/ring/match", strings.NewReader(pattern)))
				want := fmt.Sprintf("no edge between labels a%d-%d and b%d-%d", c, i, c, i)
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
					t.Errorf("client %d query %d: status %d, body %s", c, i, rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
}
