package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/plan"
)

func openCoord(t *testing.T, g *graph.Graph, k int, scheme Scheme) *Coordinator {
	t.Helper()
	c, err := Open("test", ccsr.Build(g), Options{K: k, Scheme: scheme})
	if err != nil {
		t.Fatalf("Open k=%d: %v", k, err)
	}
	t.Cleanup(c.Close)
	return c
}

func singleCount(t *testing.T, g *graph.Graph, p *graph.Graph, variant graph.Variant) uint64 {
	t.Helper()
	res, err := core.FromStore(ccsr.Build(g)).Match(p, core.MatchOptions{Variant: variant})
	if err != nil {
		t.Fatalf("single-store match: %v", err)
	}
	return res.Embeddings
}

func shardedCount(t *testing.T, c *Coordinator, p *graph.Graph, opts MatchOptions) uint64 {
	t.Helper()
	res, err := c.Match(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("sharded match: %v", err)
	}
	if res.Cancelled {
		t.Fatal("sharded match cancelled unexpectedly")
	}
	return res.Embeddings
}

// exactnessCorpus is the scaled-down dataset sweep the exactness gate runs
// over: every generator family, directed and undirected, labeled and not.
func exactnessCorpus() []dataset.Spec {
	return []dataset.Spec{
		{Name: "ppi", Kind: dataset.PPI, Vertices: 220, TargetEdges: 700, VertexLabels: 5, Seed: 21},
		{Name: "road", Kind: dataset.Road, Vertices: 196, TargetEdges: 380, Seed: 22},
		{Name: "powerlaw", Kind: dataset.PowerLaw, Vertices: 240, TargetEdges: 720, VertexLabels: 4, EdgeLabels: 2, Seed: 23},
		{Name: "cite", Kind: dataset.PowerLaw, Directed: true, Vertices: 200, TargetEdges: 560, VertexLabels: 6, Seed: 24},
		{Name: "community", Kind: dataset.Community, Vertices: 180, TargetEdges: 600, VertexLabels: 3,
			Communities: 4, IntraProb: 0.12, InterDegree: 1.5, Seed: 25},
	}
}

func samplePatterns(t *testing.T, g *graph.Graph, seed int64) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []*graph.Graph
	for _, cfg := range []struct {
		size  int
		dense bool
	}{{3, false}, {4, true}, {5, false}} {
		p, err := dataset.SamplePattern(g, cfg.size, cfg.dense, rng)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		t.Fatal("no patterns sampled")
	}
	return out
}

// TestExactnessCorpus: sharded counts equal single-store counts for every
// corpus dataset, K ∈ {1,2,4,7}, both partition schemes, edge-induced and
// homomorphic.
func TestExactnessCorpus(t *testing.T) {
	for _, spec := range exactnessCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Generate()
			patterns := samplePatterns(t, g, spec.Seed)
			type ref struct {
				edge, homo uint64
			}
			refs := make([]ref, len(patterns))
			for i, p := range patterns {
				refs[i] = ref{
					edge: singleCount(t, g, p, graph.EdgeInduced),
					homo: singleCount(t, g, p, graph.Homomorphic),
				}
			}
			for _, k := range []int{1, 2, 4, 7} {
				for _, scheme := range []Scheme{SchemeID, SchemeLabel} {
					c := openCoord(t, g, k, scheme)
					for i, p := range patterns {
						if got := shardedCount(t, c, p, MatchOptions{Variant: graph.EdgeInduced}); got != refs[i].edge {
							t.Errorf("k=%d scheme=%s pattern=%d edge-induced: sharded %d, single %d",
								k, scheme, i, got, refs[i].edge)
						}
						if got := shardedCount(t, c, p, MatchOptions{Variant: graph.Homomorphic}); got != refs[i].homo {
							t.Errorf("k=%d scheme=%s pattern=%d homomorphic: sharded %d, single %d",
								k, scheme, i, got, refs[i].homo)
						}
					}
					c.Close()
				}
			}
		})
	}
}

// TestSharedTwigPlansExact checks that the twig plans the coordinator
// builds once per decomposition, against one shard's store, are exact on
// every shard: for every plan mode, the sharded count with the
// decomposition cache on (a miss, then a hit on the cached plans) equals
// the count with the cache off and the single-store count.
func TestSharedTwigPlansExact(t *testing.T) {
	spec := exactnessCorpus()[3] // cite: directed, six vertex labels
	g := spec.Generate()
	patterns := samplePatterns(t, g, spec.Seed)
	modes := []plan.Mode{plan.ModeCSCE, plan.ModeRI, plan.ModeRICluster, plan.ModeRM, plan.ModeCostBased}
	variants := []graph.Variant{graph.EdgeInduced, graph.Homomorphic}
	for _, k := range []int{2, 4} {
		for _, scheme := range []Scheme{SchemeID, SchemeLabel} {
			cached := openCoord(t, g, k, scheme)
			uncached, err := Open("test", ccsr.Build(g), Options{K: k, Scheme: scheme, PlanCacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(uncached.Close)
			for i, p := range patterns {
				for _, v := range variants {
					for _, mode := range modes {
						res, err := core.FromStore(ccsr.Build(g)).Match(p, core.MatchOptions{Variant: v, Mode: mode})
						if err != nil {
							t.Fatal(err)
						}
						opts := MatchOptions{Variant: v, Mode: mode}
						miss := shardedCount(t, cached, p, opts)
						hit := shardedCount(t, cached, p, opts)
						fresh := shardedCount(t, uncached, p, opts)
						if miss != res.Embeddings || hit != res.Embeddings || fresh != res.Embeddings {
							t.Errorf("k=%d scheme=%s pattern=%d %v %v: cache miss %d, hit %d, off %d, single store %d",
								k, scheme, i, v, mode, miss, hit, fresh, res.Embeddings)
						}
					}
				}
			}
			if st := cached.Stats(); st.DecompHits != st.DecompMisses || st.DecompHits == 0 {
				t.Errorf("k=%d scheme=%s: %d decomposition hits, %d misses; every second match should hit",
					k, scheme, st.DecompHits, st.DecompMisses)
			}
		}
	}
}

// TestBoundaryExactlyOnce pins the cross-shard dedup property on a
// handcrafted graph where every embedding spans both shards: each one must
// surface exactly once.
func TestBoundaryExactlyOnce(t *testing.T) {
	// K=2, SchemeID: evens on shard 0, odds on shard 1. Two triangles
	// sharing edge 1-2, plus a pendant: every triangle crosses shards.
	b := graph.NewBuilder(false)
	b.AddVertices(5, 0)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(0, 2, 0)
	b.AddEdge(2, 3, 0)
	b.AddEdge(1, 3, 0)
	b.AddEdge(3, 4, 0)
	g := b.MustBuild()

	tri := graph.NewBuilder(false)
	tri.AddVertices(3, 0)
	tri.AddEdge(0, 1, 0)
	tri.AddEdge(1, 2, 0)
	tri.AddEdge(0, 2, 0)
	p := tri.MustBuild()

	path := graph.NewBuilder(false)
	path.AddVertices(4, 0)
	path.AddEdge(0, 1, 0)
	path.AddEdge(1, 2, 0)
	path.AddEdge(2, 3, 0)
	p4 := path.MustBuild()

	c := openCoord(t, g, 2, SchemeID)
	for _, tc := range []struct {
		name    string
		pattern *graph.Graph
	}{{"triangle", p}, {"path4", p4}} {
		want := singleCount(t, g, tc.pattern, graph.EdgeInduced)
		seen := make(map[string]int)
		res, err := c.Match(context.Background(), tc.pattern, MatchOptions{
			Variant: graph.EdgeInduced,
			OnEmbedding: func(m []graph.VertexID) bool {
				seen[fmt.Sprint(m)]++
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embeddings != want {
			t.Fatalf("%s: %d embeddings, want %d", tc.name, res.Embeddings, want)
		}
		if uint64(len(seen)) != want {
			t.Fatalf("%s: %d distinct embeddings, want %d", tc.name, len(seen), want)
		}
		for m, n := range seen {
			if n != 1 {
				t.Fatalf("%s: embedding %s emitted %d times", tc.name, m, n)
			}
		}
	}
	c.Close()
}

func TestVertexInducedRejected(t *testing.T) {
	g := dataset.Spec{Kind: dataset.Road, Vertices: 25, TargetEdges: 40, Seed: 3}.Generate()
	c := openCoord(t, g, 2, SchemeID)
	b := graph.NewBuilder(false)
	b.AddVertices(2, 0)
	b.AddEdge(0, 1, 0)
	if _, err := c.Match(context.Background(), b.MustBuild(), MatchOptions{Variant: graph.VertexInduced}); err != ErrVertexInduced {
		t.Fatalf("got %v, want ErrVertexInduced", err)
	}
}

func TestMatchLimit(t *testing.T) {
	g := dataset.Spec{Kind: dataset.PPI, Vertices: 200, TargetEdges: 640, VertexLabels: 3, Seed: 9}.Generate()
	c := openCoord(t, g, 4, SchemeID)
	p := samplePatterns(t, g, 9)[0]
	total := singleCount(t, g, p, graph.Homomorphic)
	if total < 10 {
		t.Skipf("pattern too selective (%d embeddings)", total)
	}
	res, err := c.Match(context.Background(), p, MatchOptions{Variant: graph.Homomorphic, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 5 || !res.LimitHit {
		t.Fatalf("limit run: embeddings=%d limitHit=%v", res.Embeddings, res.LimitHit)
	}
}

func TestMatchCancelled(t *testing.T) {
	g := dataset.Spec{Kind: dataset.Road, Vertices: 49, TargetEdges: 90, Seed: 4}.Generate()
	c := openCoord(t, g, 2, SchemeID)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := graph.NewBuilder(false)
	b.AddVertices(2, 0)
	b.AddEdge(0, 1, 0)
	if _, err := c.Match(ctx, b.MustBuild(), MatchOptions{Variant: graph.Homomorphic}); err == nil {
		t.Fatal("pre-cancelled context should fail fast")
	}
}

// referenceApply mirrors a mutation batch onto a plain graph builder-less
// model so mutated sharded counts can be checked against a rebuilt graph.
type edgeSet map[[3]uint32]bool

func applyRef(set edgeSet, muts []live.Mutation, directed bool, verts *int, labels *[]graph.Label) {
	for _, m := range muts {
		switch m.Op {
		case live.OpAddVertex:
			*verts++
			*labels = append(*labels, m.VertexLabel)
		case live.OpInsertEdge:
			set[canonEdge(directed, m.Src, m.Dst, m.EdgeLabel)] = true
		case live.OpDeleteEdge:
			delete(set, canonEdge(directed, m.Src, m.Dst, m.EdgeLabel))
		}
	}
}

func canonEdge(directed bool, src, dst graph.VertexID, el graph.EdgeLabel) [3]uint32 {
	if !directed && dst < src {
		src, dst = dst, src
	}
	return [3]uint32{uint32(src), uint32(dst), uint32(el)}
}

func rebuild(directed bool, verts int, labels []graph.Label, set edgeSet) *graph.Graph {
	b := graph.NewBuilder(directed)
	for _, l := range labels {
		b.AddVertex(l)
	}
	_ = verts
	for e := range set {
		b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.EdgeLabel(e[2]))
	}
	return b.MustBuild()
}

// TestMutateEquivalence routes batches (vertex adds, cross- and
// intra-shard edge inserts and deletes) through the coordinator and checks
// counts and counters against a freshly rebuilt single store.
func TestMutateEquivalence(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.PowerLaw, Vertices: 150, TargetEdges: 420, VertexLabels: 4, Seed: 31}
	g := spec.Generate()
	c := openCoord(t, g, 4, SchemeID)

	set := make(edgeSet)
	g.Edges(func(src, dst graph.VertexID, el graph.EdgeLabel) {
		set[canonEdge(g.Directed(), src, dst, el)] = true
	})
	verts := g.NumVertices()
	labels := append([]graph.Label(nil), g.Labels()...)

	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 12; round++ {
		var muts []live.Mutation
		n := 1 + rng.Intn(5)
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				muts = append(muts, live.Mutation{Op: live.OpAddVertex, VertexLabel: graph.Label(rng.Intn(4))})
				continue
			}
			pending := verts + countAdds(muts)
			src := graph.VertexID(rng.Intn(pending))
			dst := graph.VertexID(rng.Intn(pending))
			if src == dst {
				continue
			}
			e := canonEdge(false, src, dst, 0)
			cs, cd := graph.VertexID(e[0]), graph.VertexID(e[1])
			if set[e] && !edgeInBatch(muts, cs, cd) {
				muts = append(muts, live.Mutation{Op: live.OpDeleteEdge, Src: cs, Dst: cd})
			} else if !set[e] && !edgeInBatch(muts, cs, cd) {
				muts = append(muts, live.Mutation{Op: live.OpInsertEdge, Src: cs, Dst: cd})
			}
		}
		if len(muts) == 0 {
			continue
		}
		if _, err := c.Mutate(context.Background(), muts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		applyRef(set, muts, false, &verts, &labels)
	}

	ref := rebuild(false, verts, labels, set)
	cv, ce := c.Counts()
	if cv != ref.NumVertices() || ce != ref.NumEdges() {
		t.Fatalf("counts after mutations: coordinator %d/%d, reference %d/%d",
			cv, ce, ref.NumVertices(), ref.NumEdges())
	}
	for i, p := range samplePatterns(t, ref, 32) {
		want := singleCount(t, ref, p, graph.EdgeInduced)
		if got := shardedCount(t, c, p, MatchOptions{Variant: graph.EdgeInduced}); got != want {
			t.Fatalf("pattern %d after mutations: sharded %d, single %d", i, got, want)
		}
	}
	// Boundary gauges must equal a fresh scan.
	ownersNow := c.own.snapshot()
	for i, sh := range c.locals {
		st, release := sh.engineSnapshot()
		want := 0
		st.EdgesAll(func(src, dst graph.VertexID, _ graph.EdgeLabel) {
			if ownersNow[src] != ownersNow[dst] {
				want++
			}
		})
		release()
		if got := int(sh.boundary.Load()); got != want {
			t.Fatalf("shard %d boundary gauge %d, scan %d", i, got, want)
		}
	}
}

func countAdds(muts []live.Mutation) int {
	n := 0
	for _, m := range muts {
		if m.Op == live.OpAddVertex {
			n++
		}
	}
	return n
}

func edgeInBatch(muts []live.Mutation, src, dst graph.VertexID) bool {
	for _, m := range muts {
		if m.Op == live.OpAddVertex {
			continue
		}
		if (m.Src == src && m.Dst == dst) || (m.Src == dst && m.Dst == src) {
			return true
		}
	}
	return false
}

// TestConcurrentMutateAndMatch exercises the issue's concurrency gate:
// edge-only batches on different shards run concurrently with matches;
// afterwards sharded counts still equal a single-store rebuild. Run under
// -race via make race.
func TestConcurrentMutateAndMatch(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.PPI, Vertices: 160, TargetEdges: 500, VertexLabels: 3, Seed: 41}
	g := spec.Generate()
	c := openCoord(t, g, 4, SchemeID)
	p := samplePatterns(t, g, 41)[0]

	// Each writer owns a disjoint stripe of fresh edges between vertices of
	// one residue class (intra-shard under SchemeID), so batches land on
	// different shards and never conflict.
	const writers = 4
	const rounds = 20
	var wg sync.WaitGroup
	errCh := make(chan error, writers+1)
	inserted := make([][]live.Mutation, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for r := 0; r < rounds; r++ {
				var muts []live.Mutation
				for len(muts) < 3 {
					src := graph.VertexID(rng.Intn(g.NumVertices()/writers))*writers + graph.VertexID(w)
					dst := graph.VertexID(rng.Intn(g.NumVertices()/writers))*writers + graph.VertexID(w)
					if src == dst || g.HasEdge(src, dst) || edgeInBatch(muts, src, dst) || edgeInBatch(inserted[w], src, dst) {
						continue
					}
					muts = append(muts, live.Mutation{Op: live.OpInsertEdge, Src: src, Dst: dst})
				}
				if _, err := c.Mutate(context.Background(), muts); err != nil {
					errCh <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
				inserted[w] = append(inserted[w], muts...)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := c.Match(context.Background(), p, MatchOptions{Variant: graph.Homomorphic}); err != nil {
				errCh <- fmt.Errorf("reader: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	set := make(edgeSet)
	g.Edges(func(src, dst graph.VertexID, el graph.EdgeLabel) {
		set[canonEdge(false, src, dst, el)] = true
	})
	verts := g.NumVertices()
	labels := append([]graph.Label(nil), g.Labels()...)
	for _, muts := range inserted {
		applyRef(set, muts, false, &verts, &labels)
	}
	ref := rebuild(false, verts, labels, set)
	want := singleCount(t, ref, p, graph.Homomorphic)
	if got := shardedCount(t, c, p, MatchOptions{Variant: graph.Homomorphic}); got != want {
		t.Fatalf("after concurrent mutations: sharded %d, single %d", got, want)
	}
}

// TestMutateRejectedBatchRollsBack checks the compensation path: a batch
// whose later op fails must leave edge state untouched on every shard.
func TestMutateRejectedBatchRollsBack(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddVertices(8, 0)
	b.AddEdge(0, 1, 0)
	b.AddEdge(2, 3, 0)
	g := b.MustBuild()
	c := openCoord(t, g, 2, SchemeID)
	_, beforeEdges := c.Counts()

	// 4-5 is new (crosses shards), then inserting the existing 0-1 fails.
	_, err := c.Mutate(context.Background(), []live.Mutation{
		{Op: live.OpInsertEdge, Src: 4, Dst: 5},
		{Op: live.OpInsertEdge, Src: 0, Dst: 1},
	})
	if err == nil {
		t.Fatal("duplicate insert should fail the batch")
	}
	if _, after := c.Counts(); after != beforeEdges {
		t.Fatalf("edge count changed across rejected batch: %d -> %d", beforeEdges, after)
	}
	// The edge 4-5 must not exist on either shard: inserting it again
	// succeeds only if the compensation removed it everywhere.
	if _, err := c.Mutate(context.Background(), []live.Mutation{{Op: live.OpInsertEdge, Src: 4, Dst: 5}}); err != nil {
		t.Fatalf("re-insert after rollback: %v", err)
	}
}

// TestMutateOutOfRangeVertex must fail before touching any shard.
func TestMutateOutOfRangeVertex(t *testing.T) {
	g := dataset.Spec{Kind: dataset.Road, Vertices: 25, TargetEdges: 40, Seed: 5}.Generate()
	c := openCoord(t, g, 2, SchemeID)
	epochs := c.EpochVector()
	if _, err := c.Mutate(context.Background(), []live.Mutation{
		{Op: live.OpInsertEdge, Src: 0, Dst: graph.VertexID(g.NumVertices() + 10)},
	}); err == nil {
		t.Fatal("out-of-range endpoint should be rejected")
	}
	for i, e := range c.EpochVector() {
		if e != epochs[i] {
			t.Fatalf("shard %d epoch moved on rejected batch", i)
		}
	}
}

// TestWALRecovery reopens a sharded graph from its per-shard WAL
// directories and checks the recovered state still matches exactly.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := dataset.Spec{Kind: dataset.PowerLaw, Vertices: 120, TargetEdges: 300, VertexLabels: 3, Seed: 51}
	g := spec.Generate()
	base := ccsr.Build(g)

	c, err := Open("waltest", base, Options{K: 3, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	muts := []live.Mutation{
		{Op: live.OpAddVertex, VertexLabel: 1},
		{Op: live.OpAddVertex, VertexLabel: 2},
		{Op: live.OpInsertEdge, Src: 0, Dst: graph.VertexID(g.NumVertices())},
		{Op: live.OpInsertEdge, Src: graph.VertexID(g.NumVertices()), Dst: graph.VertexID(g.NumVertices() + 1)},
	}
	if _, err := c.Mutate(context.Background(), muts); err != nil {
		t.Fatal(err)
	}
	p := samplePatterns(t, g, 51)[0]
	want := shardedCount(t, c, p, MatchOptions{Variant: graph.EdgeInduced})
	wantV, wantE := c.Counts()
	c.Close()

	r, err := Open("waltest", base, Options{K: 3, WALDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	gotV, gotE := r.Counts()
	if gotV != wantV || gotE != wantE {
		t.Fatalf("recovered counts %d/%d, want %d/%d", gotV, gotE, wantV, wantE)
	}
	if got := shardedCount(t, r, p, MatchOptions{Variant: graph.EdgeInduced}); got != want {
		t.Fatalf("recovered match count %d, want %d", got, want)
	}
}
