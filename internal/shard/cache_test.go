package shard

import (
	"context"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/plan"
)

func pathPattern() *graph.Graph {
	b := graph.NewBuilder(false)
	b.AddVertices(3, 0)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	return b.MustBuild()
}

// TestDecompKeyCoversEveryEpoch is the satellite-5 unit regression: the
// cache key must change when ANY shard's epoch moves, not just shard 0's.
func TestDecompKeyCoversEveryEpoch(t *testing.T) {
	p := pathPattern()
	base := decompKey(graph.EdgeInduced, plan.ModeCSCE, []uint64{3, 7, 1, 4}, p)
	for i := 0; i < 4; i++ {
		epochs := []uint64{3, 7, 1, 4}
		epochs[i]++
		if decompKey(graph.EdgeInduced, plan.ModeCSCE, epochs, p) == base {
			t.Fatalf("bumping shard %d epoch did not change the key", i)
		}
	}
	if decompKey(graph.Homomorphic, plan.ModeCSCE, []uint64{3, 7, 1, 4}, p) == base {
		t.Fatal("variant not in key")
	}
	if decompKey(graph.EdgeInduced, plan.ModeRI, []uint64{3, 7, 1, 4}, p) == base {
		t.Fatal("mode not in key")
	}
	if decompKey(graph.EdgeInduced, plan.ModeCSCE, []uint64{3, 7, 1, 4}, pathPattern()) != base {
		t.Fatal("identical pattern must produce the same key")
	}
	// A vector that only REORDERS the same epochs must still differ.
	if decompKey(graph.EdgeInduced, plan.ModeCSCE, []uint64{7, 3, 1, 4}, p) == base {
		t.Fatal("epoch positions not distinguished")
	}
}

// TestDecompCacheInvalidationOnAnyShard is the end-to-end regression: a
// mutation committed on a NON-zero shard must miss the decomposition
// cache on the next match. A key carrying only one shard's epoch would
// keep serving the stale decomposition here.
func TestDecompCacheInvalidationOnAnyShard(t *testing.T) {
	g := dataset.Spec{Kind: dataset.PowerLaw, Vertices: 120, TargetEdges: 340, VertexLabels: 3, Seed: 61}.Generate()
	c := openCoord(t, g, 4, SchemeID)
	p := samplePatterns(t, g, 61)[0]

	res, err := c.Match(context.Background(), p, MatchOptions{Variant: graph.Homomorphic})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecompCacheHit {
		t.Fatal("first match cannot hit the cache")
	}
	res, err = c.Match(context.Background(), p, MatchOptions{Variant: graph.Homomorphic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DecompCacheHit {
		t.Fatal("second identical match should hit the cache")
	}

	// Mutate an edge strictly inside shard 3 (SchemeID: both endpoints
	// ≡ 3 mod 4); shard 0's epoch stays put.
	var src, dst graph.VertexID = 3, 7
	for g.HasEdge(src, dst) {
		dst += 4
	}
	before := c.EpochVector()
	if _, err := c.Mutate(context.Background(), []live.Mutation{{Op: live.OpInsertEdge, Src: src, Dst: dst}}); err != nil {
		t.Fatal(err)
	}
	after := c.EpochVector()
	if after[0] != before[0] {
		t.Fatalf("shard 0 epoch moved (%d -> %d); the regression needs a non-zero shard", before[0], after[0])
	}
	if after[3] == before[3] {
		t.Fatal("shard 3 epoch did not move")
	}

	res, err = c.Match(context.Background(), p, MatchOptions{Variant: graph.Homomorphic})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecompCacheHit {
		t.Fatal("match after a shard-3 commit must miss: the key must cover the whole epoch vector")
	}
}

// TestDecompCacheLRUEviction: a hit refreshes a decomposition's recency,
// so a full cache evicts the least recently used one, not the oldest; a
// negative PlanCacheSize disables the cache.
func TestDecompCacheLRUEviction(t *testing.T) {
	g := dataset.Spec{Kind: dataset.PowerLaw, Vertices: 120, TargetEdges: 340, VertexLabels: 3, Seed: 61}.Generate()
	open := func(size int) *Coordinator {
		c, err := Open("test", ccsr.Build(g), Options{K: 2, Scheme: SchemeID, PlanCacheSize: size})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	p := pathPattern()
	hit := func(c *Coordinator, mode plan.Mode) bool {
		t.Helper()
		res, err := c.Match(context.Background(), p, MatchOptions{Variant: graph.Homomorphic, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res.DecompCacheHit
	}

	// The mode is part of the key, so each mode is its own entry.
	c := open(2)
	for i, step := range []struct {
		mode plan.Mode
		hit  bool
	}{
		{plan.ModeCSCE, false},
		{plan.ModeRI, false},
		{plan.ModeCSCE, true}, // CSCE becomes the most recently used
		{plan.ModeRM, false},  // evicts RI
		{plan.ModeCSCE, true},
		{plan.ModeRI, false},
	} {
		if got := hit(c, step.mode); got != step.hit {
			t.Fatalf("step %d (%v): hit = %v, want %v", i, step.mode, got, step.hit)
		}
	}

	disabled := open(-1)
	for i := 0; i < 2; i++ {
		if hit(disabled, plan.ModeCSCE) {
			t.Fatalf("disabled cache hit on match %d", i)
		}
	}
}
