package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/prefilter"
)

// benchQuery is one member of BenchmarkHandleMatch's pool: the pattern as
// a client sends it and the request target that carries its variant.
type benchQuery struct {
	text   []byte
	target string
	expect float64
}

// humanPool samples a read-selective-shaped pool on Human: D8, D16, D32
// and S8 patterns with 1-100 embeddings each, perClass per class, half
// edge-induced and a quarter each vertex-induced and homomorphic.
func humanPool(tb testing.TB, g *graph.Graph, perClass int) []benchQuery {
	tb.Helper()
	eng := core.NewEngine(g)
	rng := rand.New(rand.NewSource(47))
	variants := map[graph.Variant]string{graph.EdgeInduced: "edge", graph.VertexInduced: "vertex", graph.Homomorphic: "homo"}
	var pool []benchQuery
	for _, class := range []struct {
		size  int
		dense bool
	}{{8, true}, {16, true}, {32, true}, {8, false}} {
		for _, q := range []struct {
			v    graph.Variant
			need int
		}{{graph.EdgeInduced, perClass / 2}, {graph.VertexInduced, perClass / 4}, {graph.Homomorphic, perClass / 4}} {
			for draws := 0; q.need > 0; draws++ {
				if draws > 4000 {
					tb.Fatalf("pool: %d-vertex dense=%v %v short by %d", class.size, class.dense, q.v, q.need)
				}
				p, err := dataset.SamplePattern(g, class.size, class.dense, rng)
				if err != nil {
					continue
				}
				res, err := eng.Match(p, core.MatchOptions{Variant: q.v, Limit: 101})
				if err != nil {
					tb.Fatal(err)
				}
				if res.Embeddings < 1 || res.Embeddings > 100 {
					continue
				}
				var buf bytes.Buffer
				if err := graph.Format(&buf, p); err != nil {
					tb.Fatal(err)
				}
				pool = append(pool, benchQuery{buf.Bytes(), "/v1/graphs/human/match?variant=" + variants[q.v], float64(res.Embeddings)})
				q.need--
			}
		}
	}
	return pool
}

// BenchmarkHandleMatch runs one /match per op through Server.Handler, in
// process (httptest requests, a discarding writer, no socket), cycling
// through a read-selective-shaped pool on Human with the plan cache warm:
// parse, prefilter, admission, plan-cache hit, CCSR read, search, stream
// and finish with its info-level log line. prefilter_checks/op is how
// many admission cascades ran per query.
//
//	go test -run '^$' -bench BenchmarkHandleMatch -benchmem ./internal/server
func BenchmarkHandleMatch(b *testing.B) {
	spec, _ := dataset.ByName("Human")
	g := spec.Generate()
	g.Names = NumericLabels(g)
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if _, err := s.Registry().Add("human", core.NewEngine(g)); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	pool := humanPool(b, g, 8)
	h := s.Handler()

	// Warm the plan cache and check every reply once.
	for _, q := range pool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, q.target, bytes.NewReader(q.text)))
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		var sum map[string]any
		if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || sum["embeddings"] != q.expect {
			b.Fatalf("%s: status %d, summary %s, want %v embeddings", q.target, rec.Code, lines[len(lines)-1], q.expect)
		}
	}

	checks := &s.metrics.prefilter[prefilter.Filters()[0]].checks
	before := checks.Load()
	w := &discardFlusher{hdr: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pool[i%len(pool)]
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, q.target, bytes.NewReader(q.text)))
	}
	b.StopTimer()
	b.ReportMetric(float64(checks.Load()-before)/float64(b.N), "prefilter_checks/op")
}
