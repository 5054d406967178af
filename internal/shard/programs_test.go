package shard

import (
	"context"
	"sync"
	"testing"

	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/obs"
	"csce/internal/plan"
)

// tracedLocals runs one match under a trace and returns its embeddings and
// the compiled attribute of each shard's shard.local span, by shard.
func tracedLocals(t *testing.T, c *Coordinator, p *graph.Graph, v graph.Variant) (uint64, []int64) {
	t.Helper()
	tr := obs.NewTrace()
	res, err := c.Match(obs.WithTrace(context.Background(), tr), p, MatchOptions{Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	compiled := make([]int64, c.K())
	seen := 0
	for _, sp := range tr.Spans() {
		if sp.Name != "shard.local" {
			continue
		}
		seen++
		var shard, n int64 = -1, -1
		for _, a := range sp.Attrs {
			switch a.Key {
			case "shard":
				shard = a.Num
			case "compiled":
				n = a.Num
			}
		}
		if shard < 0 || n < 0 {
			t.Fatalf("shard.local span without shard or compiled: %+v", sp.Attrs)
		}
		compiled[shard] = n
	}
	if seen != c.K() {
		t.Fatalf("%d shard.local spans, want %d", seen, c.K())
	}
	return res.Embeddings, compiled
}

// cachedDecomp returns p's decomposition cached at the current epoch
// vector.
func cachedDecomp(t *testing.T, c *Coordinator, p *graph.Graph, v graph.Variant) *Decomposition {
	t.Helper()
	dec, ok := c.decomp.Get(decompKey(v, plan.ModeCSCE, c.EpochVector(), p))
	if !ok {
		t.Fatal("no cached decomposition at the current epoch vector")
	}
	return dec
}

// programsAt returns the programs cached for p at the current epoch vector,
// by shard (nil where a shard has compiled none yet).
func programsAt(t *testing.T, c *Coordinator, p *graph.Graph, v graph.Variant) []*twigPrograms {
	t.Helper()
	dec := cachedDecomp(t, c, p, v)
	out := make([]*twigPrograms, len(dec.programs))
	for i := range dec.programs {
		out[i] = dec.programs[i].Load()
	}
	return out
}

// TestShardProgramsReused: the first match of a pattern compiles every twig
// on every shard, and a second match at the same epochs compiles nothing
// anywhere and runs the very programs the first one cached.
func TestShardProgramsReused(t *testing.T) {
	spec := exactnessCorpus()[1]
	g := spec.Generate()
	c := openCoord(t, g, 4, SchemeID)
	for i, p := range samplePatterns(t, g, spec.Seed) {
		for _, v := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
			want := singleCount(t, g, p, v)
			got, compiled := tracedLocals(t, c, p, v)
			twigs := int64(len(cachedDecomp(t, c, p, v).Twigs))
			for sh, n := range compiled {
				if n != twigs {
					t.Fatalf("pattern %d %v: first match compiled %d twigs on shard %d, want %d", i, v, n, sh, twigs)
				}
			}
			first := programsAt(t, c, p, v)
			again, compiled := tracedLocals(t, c, p, v)
			for sh, n := range compiled {
				if n != 0 {
					t.Fatalf("pattern %d %v: second match compiled %d twigs on shard %d", i, v, n, sh)
				}
			}
			for sh, tp := range programsAt(t, c, p, v) {
				if tp == nil || tp != first[sh] {
					t.Fatalf("pattern %d %v: shard %d replaced its programs on a warm decomposition", i, v, sh)
				}
			}
			if got != want || again != want {
				t.Fatalf("pattern %d %v: %d then %d embeddings, single store %d", i, v, got, again, want)
			}
		}
	}
}

// TestShardProgramsRecompileAtNewVersion hands the shards a decomposition
// whose programs were compiled against their stores before a commit that
// added a vertex and edges on every shard: each shard's pinned snapshot is
// then at another Version than its slot, so every shard compiles again, and
// the count is the mutated graph's, new vertex included.
func TestShardProgramsRecompileAtNewVersion(t *testing.T) {
	g := dataset.Spec{Kind: dataset.PowerLaw, Vertices: 120, TargetEdges: 340, VertexLabels: 3, Seed: 61}.Generate()
	c := openCoord(t, g, 4, SchemeID)
	p := pathPattern()
	v := graph.Homomorphic
	if _, compiled := tracedLocals(t, c, p, v); compiled[0] == 0 {
		t.Fatal("first match compiled nothing")
	}
	dec := cachedDecomp(t, c, p, v)
	old := programsAt(t, c, p, v)

	// One new vertex (broadcast: every shard's store gets a new Version),
	// joined to one label-0 vertex of every residue class, so it starts
	// and extends paths on every shard.
	n := graph.VertexID(g.NumVertices())
	muts := []live.Mutation{{Op: live.OpAddVertex, VertexLabel: 0}}
	var joined []graph.VertexID
	for u := graph.VertexID(0); len(joined) < 4 && int(u) < g.NumVertices(); u++ {
		if g.Label(u) == 0 && int(u)%4 == len(joined) {
			joined = append(joined, u)
			muts = append(muts, live.Mutation{Op: live.OpInsertEdge, Src: n, Dst: u})
		}
	}
	if len(joined) < 4 {
		t.Fatal("no label-0 vertex in some residue class")
	}
	if _, err := c.Mutate(context.Background(), muts); err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(false)
	for u := 0; u < g.NumVertices(); u++ {
		b.AddVertex(g.Label(graph.VertexID(u)))
	}
	b.AddVertex(0)
	g.Edges(func(src, dst graph.VertexID, el graph.EdgeLabel) { b.AddEdge(src, dst, el) })
	for _, u := range joined {
		b.AddEdge(n, u, 0)
	}
	want := singleCount(t, b.MustBuild(), p, v)

	// Serve the pre-commit decomposition, programs and all, at the new
	// epoch vector.
	c.decomp.Put(decompKey(v, plan.ModeCSCE, c.EpochVector(), p), dec)
	got, compiled := tracedLocals(t, c, p, v)
	if got != want {
		t.Fatalf("after the commit: %d embeddings, single store %d", got, want)
	}
	for sh, n := range compiled {
		if n != int64(len(dec.Twigs)) {
			t.Errorf("shard %d compiled %d twigs at a new Version, want %d", sh, n, len(dec.Twigs))
		}
		if tp := dec.programs[sh].Load(); tp == old[sh] || tp.version == old[sh].version {
			t.Errorf("shard %d kept its pre-commit programs", sh)
		}
	}
}

// TestShardProgramsConcurrentColdCompile starts K matches at once on one
// cached decomposition no shard has compiled yet: every shard may compile
// it several times over and all but one store lose the race, which must
// cost nothing but the work. Run under -race.
func TestShardProgramsConcurrentColdCompile(t *testing.T) {
	spec := exactnessCorpus()[1]
	g := spec.Generate()
	const k = 4
	for _, p := range samplePatterns(t, g, spec.Seed) {
		c := openCoord(t, g, k, SchemeID)
		want := singleCount(t, g, p, graph.EdgeInduced)
		dec, err := c.decompose(p, plan.ModeCSCE)
		if err != nil {
			t.Fatal(err)
		}
		c.decomp.Put(decompKey(graph.EdgeInduced, plan.ModeCSCE, c.EpochVector(), p), dec)
		got := make([]uint64, k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := c.Match(context.Background(), p, MatchOptions{Variant: graph.EdgeInduced})
				got[i], errs[i] = res.Embeddings, err
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil || got[i] != want {
				t.Fatalf("concurrent match %d: %d embeddings (err %v), single store %d", i, got[i], errs[i], want)
			}
		}
		n, compiled := tracedLocals(t, c, p, graph.EdgeInduced)
		if n != want {
			t.Fatalf("after the race: %d embeddings, single store %d", n, want)
		}
		for sh, m := range compiled {
			if m != 0 {
				t.Fatalf("after the race shard %d compiled %d twigs again", sh, m)
			}
		}
	}
}

// TestShardCommitDropsStalePrograms: after a commit no cached
// decomposition holds a program compiled against a store the commit
// replaced, on any shard, even for a commit that touched one shard only.
func TestShardCommitDropsStalePrograms(t *testing.T) {
	g := dataset.Spec{Kind: dataset.PowerLaw, Vertices: 120, TargetEdges: 340, VertexLabels: 3, Seed: 61}.Generate()
	c := openCoord(t, g, 4, SchemeID)
	patterns := samplePatterns(t, g, 61)
	for _, p := range patterns {
		shardedCount(t, c, p, MatchOptions{Variant: graph.Homomorphic})
	}
	if c.decomp.Len() == 0 {
		t.Fatal("nothing cached")
	}
	// An edge inside shard 3 (SchemeID: both endpoints ≡ 3 mod 4).
	var src, dst graph.VertexID = 3, 7
	for g.HasEdge(src, dst) {
		dst += 4
	}
	if _, err := c.Mutate(context.Background(), []live.Mutation{{Op: live.OpInsertEdge, Src: src, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	// Match again at the new vector, so the cache holds fresh entries too.
	shardedCount(t, c, patterns[0], MatchOptions{Variant: graph.Homomorphic})

	versions := make([]uint64, c.K())
	for i, sh := range c.locals {
		st, release := sh.engineSnapshot()
		versions[i] = st.Version()
		release()
	}
	var keys []string
	c.decomp.DeleteFunc(func(key string) bool { keys = append(keys, key); return false })
	if len(keys) == 0 {
		t.Fatal("the match after the commit cached nothing")
	}
	for _, key := range keys {
		dec, ok := c.decomp.Get(key)
		if !ok {
			t.Fatalf("entry %q vanished", key)
		}
		for sh := range dec.programs {
			if tp := dec.programs[sh].Load(); tp != nil && tp.version != versions[sh] {
				t.Errorf("entry %q holds shard %d programs of store version %d, current %d", key, sh, tp.version, versions[sh])
			}
		}
	}
}

// TestShardLeafFirstTwigPlansExact serves decompositions whose twig plans
// put a leaf before the root, an order no plan mode happens to choose on
// the corpus. Such a program keeps its whole depth-0 pool, so a shard
// also finds stars rooted at vertices other shards own, and only the emit
// check keeps each star on exactly one shard.
func TestShardLeafFirstTwigPlansExact(t *testing.T) {
	spec := exactnessCorpus()[0]
	g := spec.Generate()
	for _, scheme := range []Scheme{SchemeID, SchemeLabel} {
		c := openCoord(t, g, 4, scheme)
		store, release := c.locals[0].engineSnapshot()
		for i, p := range samplePatterns(t, g, spec.Seed) {
			for _, v := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
				dec, err := c.decompose(p, plan.ModeCSCE)
				if err != nil {
					t.Fatal(err)
				}
				for ti := range dec.Twigs {
					tw := &dec.Twigs[ti]
					order := []graph.VertexID{tw.Root}
					for u := 1; u < tw.Sub.NumVertices(); u++ {
						order = append(order, graph.VertexID(u))
					}
					if len(order) > 1 {
						order[0], order[1] = order[1], order[0]
					}
					if tw.Plan, err = plan.FromOrder(tw.Sub, store, graph.Homomorphic, order); err != nil {
						t.Fatal(err)
					}
				}
				c.decomp.Put(decompKey(v, plan.ModeCSCE, c.EpochVector(), p), dec)
				if got, want := shardedCount(t, c, p, MatchOptions{Variant: v}), singleCount(t, g, p, v); got != want {
					t.Errorf("scheme %s pattern %d %v: leaf-first twig plans give %d embeddings, single store %d", scheme, i, v, got, want)
				}
			}
		}
		release()
	}
}
