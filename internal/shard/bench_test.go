package shard

import (
	"context"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/dataset"
	"csce/internal/obs"
)

// BenchmarkShardMatch runs Coordinator.Match on Yeast at K=4 over the pool
// of yeastPool (shaped like the sharded-read workload's), 8 patterns per
// class and variant. One op is one match, cycling through the pool. In the
// untraced and traced sub-benchmarks the decomposition cache is warm, so
// they measure scatter, the shards' compiled twig programs and the join,
// not planning or compiling; the traced one runs each match under a fresh
// obs.Trace and finishes it, as csced does for every request, so the pair
// is the cost of tracing. The uncached one runs on a coordinator opened
// with PlanCacheSize -1, which decomposes, plans and compiles every twig
// on every shard for every match: the cache-miss path.
//
//	go test -run '^$' -bench BenchmarkShardMatch -benchmem ./internal/shard
func BenchmarkShardMatch(b *testing.B) {
	c, pool := yeastPool(b, 8)
	spec, _ := dataset.ByName("Yeast")
	uncached, err := Open("yeast", ccsr.Build(spec.Generate()), Options{K: 4, PlanCacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(uncached.Close)
	for _, run := range []struct {
		name   string
		c      *Coordinator
		traced bool
	}{{"untraced", c, false}, {"traced", c, true}, {"uncached", uncached, false}} {
		b.Run(run.name, func(b *testing.B) {
			spans := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := pool[i%len(pool)]
				ctx := context.Background()
				var tr *obs.Trace
				if run.traced {
					tr = obs.NewTrace()
					ctx = obs.WithTrace(ctx, tr)
				}
				if _, err := run.c.Match(ctx, q.p, MatchOptions{Variant: q.v}); err != nil {
					b.Fatal(err)
				}
				ft, _ := tr.Finish("bench")
				spans += len(ft.Spans)
			}
			b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
		})
	}
}
