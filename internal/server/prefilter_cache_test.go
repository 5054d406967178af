package server

import (
	"context"
	"net/http"
	"net/url"
	"testing"

	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/plan"
)

// TestPlannedQuerySkipsPrefilter pins the admission order on both backends:
// a query whose plan (or decomposition) is cached at the current epoch is
// admitted without a prefilter check, a commit re-arms the check, a
// rejected pattern is checked and rejected on every repeat, and every
// admitted query still moves exactly one cache counter.
func TestPlannedQuerySkipsPrefilter(t *testing.T) {
	base, _ := startShardedServer(t, Config{}, shardTestGraph(40, 30, 9), 4)
	profile := url.Values{"profile": {"1"}}

	for _, tc := range []struct {
		graph        string
		hits, misses func(doc map[string]any) float64
	}{
		{"solo",
			func(doc map[string]any) float64 { return doc["plan_cache_hits"].(float64) },
			func(doc map[string]any) float64 { return doc["plan_cache_misses"].(float64) }},
		{"sharded",
			func(doc map[string]any) float64 { return coordDoc(t, doc)["decomp_cache_hits"].(float64) },
			func(doc map[string]any) float64 { return coordDoc(t, doc)["decomp_cache_misses"].(float64) }},
	} {
		t.Run(tc.graph, func(t *testing.T) {
			checks := func() float64 {
				return prefilterMetric(t, getMetrics(t, base), "prefilter_checks", "nbr-label")
			}
			startDoc := getMetrics(t, base)
			cacheGets := func() float64 {
				doc := getMetrics(t, base)
				return tc.hits(doc) + tc.misses(doc) - tc.hits(startDoc) - tc.misses(startDoc)
			}
			admitted := 0
			// query runs pathPattern3 and reports whether its trace had a
			// prefilter.check span; the embedding count must never move
			// while the graph does not.
			var want float64 = -1
			query := func() bool {
				t.Helper()
				_, sum := readStream(t, postMatch(t, base, tc.graph, pathPattern3, profile))
				if sum["rejected_by"] != nil {
					t.Fatalf("path-3 rejected: %v", sum)
				}
				if got := sum["embeddings"].(float64); want >= 0 && got != want {
					t.Fatalf("embeddings %v, want %v", got, want)
				} else {
					want = got
				}
				admitted++
				_, checked := sum["spans"].(map[string]any)["prefilter.check"]
				return checked
			}

			before := checks()
			if !query() {
				t.Error("a first query skipped the prefilter check")
			}
			for i := 0; i < 3; i++ {
				if query() {
					t.Errorf("repeat %d at one epoch ran the prefilter check", i+1)
				}
			}
			if got := checks() - before; got != 1 {
				t.Errorf("four queries at one epoch moved prefilter_checks by %v, want 1", got)
			}

			// A commit moves the epoch: the next query is a cache miss and is
			// checked again, once.
			if resp, doc := postMutate(t, base, tc.graph,
				`{"mutations":[{"op":"insert_edge","src":0,"dst":20}]}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("mutate: %d %v", resp.StatusCode, doc)
			}
			want = -1
			before = checks()
			if !query() {
				t.Error("the first query after a commit skipped the prefilter check")
			}
			if query() {
				t.Error("a repeat after the commit ran the prefilter check")
			}
			if got := checks() - before; got != 1 {
				t.Errorf("two queries after a commit moved prefilter_checks by %v, want 1", got)
			}

			// A rejected pattern is never planned, so nothing admits it
			// without a check: every repeat is checked and rejected.
			rejectsBefore := prefilterMetric(t, getMetrics(t, base), "prefilter_rejects", "nbr-label")
			before = checks()
			for i := 0; i < 3; i++ {
				_, sum := readStream(t, postMatch(t, base, tc.graph, impossiblePattern, nil))
				if sum["rejected_by"] != "nbr-label" {
					t.Fatalf("repeat %d of an impossible pattern: rejected_by=%v", i, sum["rejected_by"])
				}
			}
			doc := getMetrics(t, base)
			if got := prefilterMetric(t, doc, "prefilter_checks", "nbr-label") - before; got != 3 {
				t.Errorf("three rejects moved prefilter_checks by %v, want 3", got)
			}
			if got := prefilterMetric(t, doc, "prefilter_rejects", "nbr-label") - rejectsBefore; got != 3 {
				t.Errorf("three rejects moved prefilter_rejects by %v, want 3", got)
			}

			if got := cacheGets(); got != float64(admitted) {
				t.Errorf("cache hits+misses moved by %v over %d admitted queries", got, admitted)
			}
		})
	}
}

// TestPlannedQueryPrefilterDisabled: with the prefilter off the cache
// lookup is not made either; every query still counts one cache get and
// no prefilter counter moves.
func TestPlannedQueryPrefilterDisabled(t *testing.T) {
	base, _ := startShardedServer(t, Config{DisablePrefilter: true}, shardTestGraph(40, 30, 9), 4)
	for i := 0; i < 3; i++ {
		for _, name := range []string{"solo", "sharded"} {
			_, sum := readStream(t, postMatch(t, base, name, pathPattern3, url.Values{"profile": {"1"}}))
			if _, checked := sum["spans"].(map[string]any)["prefilter.check"]; checked {
				t.Fatalf("%s: prefilter disabled but the trace has a prefilter.check span", name)
			}
		}
	}
	doc := getMetrics(t, base)
	if got := doc["plan_cache_hits"].(float64) + doc["plan_cache_misses"].(float64); got != 3 {
		t.Errorf("plan cache hits+misses = %v, want 3", got)
	}
	sd := coordDoc(t, doc)
	if got := sd["decomp_cache_hits"].(float64) + sd["decomp_cache_misses"].(float64); got != 3 {
		t.Errorf("decomposition cache hits+misses = %v, want 3", got)
	}
	if got := prefilterMetric(t, doc, "prefilter_checks", "nbr-label"); got != 0 {
		t.Errorf("prefilter_checks = %v with the prefilter disabled", got)
	}
}

// TestPlannedThenCommitRunsPinnedSnapshot: a commit that lands between the
// admission lookup and the snapshot pin does not hand the query the plan
// the lookup found. run keys the cache by the epoch it pinned, so the query
// misses, plans against its own snapshot, and sees the committed edge.
func TestPlannedThenCommitRunsPinnedSnapshot(t *testing.T) {
	_, s := startServer(t, Config{}, map[string]*graph.Graph{"p4": pathOf(4)})
	ent, _ := s.Registry().Get("p4")
	be := s.backend(ent)
	tri := graph.MustParse(triPattern)
	query := func() *matchQuery {
		return &matchQuery{ent: ent, pattern: tri,
			params: matchParams{variant: graph.EdgeInduced, mode: plan.ModeCSCE}}
	}
	run := func(q *matchQuery) (uint64, string) {
		t.Helper()
		res, err := be.run(context.Background(), q, func([]graph.VertexID) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		return res.embeddings, res.report(0, 0).summary["plan_cache"].(string)
	}

	if q := query(); be.planned(q) {
		t.Fatal("an empty plan cache reported the query planned")
	} else if n, cache := run(q); n != 0 || cache != "miss" {
		t.Fatalf("triangle on a path: %d embeddings, plan_cache %s; want 0, miss", n, cache)
	}
	q := query()
	if !be.planned(q) {
		t.Fatal("a query planned at this epoch was not found")
	}
	if _, err := ent.Live.Mutate(context.Background(), []live.Mutation{
		{Op: live.OpInsertEdge, Src: 0, Dst: 2},
	}); err != nil {
		t.Fatal(err)
	}
	n, cache := run(q)
	if cache != "miss" || n == 0 {
		t.Fatalf("after a commit: %d embeddings, plan_cache %s; want the new triangle from a fresh plan", n, cache)
	}
	if !s.plans.Contains(planKey("p4", ent.Live.Epoch(), graph.EdgeInduced, plan.ModeCSCE, tri)) {
		t.Error("the fresh plan was not cached under the pinned epoch")
	}
}

// TestCommitDropsStalePrograms: a /mutate drops every cached program of
// its graph at an older epoch — each holds its snapshot's rows — and leaves
// other graphs' entries alone. A query still pinned at the pre-commit
// snapshot counts that snapshot's embeddings and does not put its program
// back, since its key can never be looked up again. The prefilter is off,
// so the triangle, provably absent before the commit, is planned too.
func TestCommitDropsStalePrograms(t *testing.T) {
	base, s := startServer(t, Config{DisablePrefilter: true}, map[string]*graph.Graph{"p4": pathOf(4), "other": pathOf(4)})
	ent, _ := s.Registry().Get("p4")
	be := s.backend(ent).(storeBackend)
	key := func(graphName string, epoch uint64, pattern string) string {
		return planKey(graphName, epoch, graph.EdgeInduced, plan.ModeCSCE, graph.MustParse(pattern))
	}
	for _, g := range []string{"p4", "other"} {
		for _, p := range []string{pathPattern3, triPattern} {
			readStream(t, postMatch(t, base, g, p, nil))
		}
	}
	old := ent.Live.Acquire()
	defer old.Release()
	before := old.Epoch()
	for _, p := range []string{pathPattern3, triPattern} {
		if !s.plans.Contains(key("p4", before, p)) || !s.plans.Contains(key("other", 0, p)) {
			t.Fatalf("a query's program was not cached: %q", p)
		}
	}

	if resp, doc := postMutate(t, base, "p4",
		`{"mutations":[{"op":"insert_edge","src":0,"dst":2}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %v", resp.StatusCode, doc)
	}
	for _, p := range []string{pathPattern3, triPattern} {
		if s.plans.Contains(key("p4", before, p)) {
			t.Errorf("the commit left a program of p4 at epoch %d cached: %q", before, p)
		}
		if !s.plans.Contains(key("other", 0, p)) {
			t.Errorf("a commit on p4 dropped another graph's program: %q", p)
		}
	}

	// The pinned query misses, compiles against its own snapshot, and
	// finds no triangle on the path; its program is not cached.
	q := &matchQuery{ent: ent, pattern: graph.MustParse(triPattern),
		params: matchParams{variant: graph.EdgeInduced, mode: plan.ModeCSCE}}
	if be.planned(q) {
		t.Fatal("a query was planned at the new epoch before any ran there")
	}
	res, err := be.runOn(context.Background(), q, old, func([]graph.VertexID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if cache := res.report(0, 0).summary["plan_cache"]; res.embeddings != 0 || cache != "miss" {
		t.Fatalf("triangle at the pinned pre-commit snapshot: %d embeddings, plan_cache %v; want 0, miss", res.embeddings, cache)
	}
	if s.plans.Contains(key("p4", before, triPattern)) {
		t.Error("a query pinned at a superseded snapshot cached its program")
	}
	// The current snapshot has the triangle, and caches its program.
	if n := matchCount(t, base, "p4", triPattern); n == 0 {
		t.Error("the committed chord made no triangle")
	}
	if !s.plans.Contains(key("p4", ent.Live.Epoch(), triPattern)) {
		t.Error("the program at the current epoch was not cached")
	}
}

// coordDoc returns the "sharded" graph's coordinator document from /metrics.
func coordDoc(t *testing.T, doc map[string]any) map[string]any {
	t.Helper()
	sd, ok := doc["shard"].(map[string]any)["sharded"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics has no shard.sharded document: %v", doc["shard"])
	}
	return sd
}
