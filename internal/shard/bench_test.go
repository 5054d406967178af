package shard

import (
	"context"
	"testing"

	"csce/internal/obs"
)

// BenchmarkShardMatch runs Coordinator.Match on Yeast at K=4 over the pool
// of yeastPool (shaped like the sharded-read workload's), 8 patterns per
// class and variant. One op is one match, cycling through the pool with
// the decomposition cache warm, so it measures scatter, local twig search
// and join — not planning. The traced sub-benchmark runs each match under a
// fresh obs.Trace and finishes it, as csced does for every request; the
// untraced one runs it on a bare context, so the pair is the cost of
// tracing.
//
//	go test -run '^$' -bench BenchmarkShardMatch -benchmem ./internal/shard
func BenchmarkShardMatch(b *testing.B) {
	c, pool := yeastPool(b, 8)
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			spans := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := pool[i%len(pool)]
				ctx := context.Background()
				var tr *obs.Trace
				if traced {
					tr = obs.NewTrace()
					ctx = obs.WithTrace(ctx, tr)
				}
				if _, err := c.Match(ctx, q.p, MatchOptions{Variant: q.v}); err != nil {
					b.Fatal(err)
				}
				ft, _ := tr.Finish("bench")
				spans += len(ft.Spans)
			}
			b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
		})
	}
}
