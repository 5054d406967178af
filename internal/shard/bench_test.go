package shard

import (
	"context"
	"math/rand"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/graph"
)

// BenchmarkShardMatch runs Coordinator.Match on Yeast at K=4 over a pool
// shaped like the sharded-read workload's: sparse S8/S12/S16 and dense D4
// patterns, edge-induced and homomorphic, each with 1-100 embeddings and
// at most 20 000 twig rows. One op is one match, cycling through the pool
// with the decomposition cache warm, so it measures scatter, local twig
// search and join — not planning.
//
//	go test -run '^$' -bench BenchmarkShardMatch -benchmem ./internal/shard
func BenchmarkShardMatch(b *testing.B) {
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	c, err := Open("yeast", ccsr.Build(g), Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	single := core.NewEngine(g)
	ctx := context.Background()

	type query struct {
		p *graph.Graph
		v graph.Variant
	}
	var pool []query
	rng := rand.New(rand.NewSource(7))
	for _, class := range []struct {
		size  int
		dense bool
	}{{8, false}, {12, false}, {16, false}, {4, true}} {
		for _, v := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
			for need, draws := 2, 0; need > 0 && draws < 2000; draws++ {
				p, err := dataset.SamplePattern(g, class.size, class.dense, rng)
				if err != nil {
					continue
				}
				res, err := single.Match(p, core.MatchOptions{Variant: v, Limit: 101})
				if err != nil || res.Embeddings < 1 || res.Embeddings > 100 {
					continue
				}
				sr, err := c.Match(ctx, p, MatchOptions{Variant: v})
				if err != nil || sr.Embeddings != res.Embeddings {
					b.Fatalf("sharded match: %d embeddings, single store %d, err %v", sr.Embeddings, res.Embeddings, err)
				}
				if sr.Partials > 20000 {
					continue
				}
				pool = append(pool, query{p, v})
				need--
			}
		}
	}
	if len(pool) == 0 {
		b.Fatal("no pattern admitted")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pool[i%len(pool)]
		if _, err := c.Match(ctx, q.p, MatchOptions{Variant: q.v}); err != nil {
			b.Fatal(err)
		}
	}
}
