package core

import (
	"context"
	"testing"

	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/obs"
)

// BenchmarkEngineMatch runs Engine.Match, planning included, over 16
// seeded sparse S8 patterns on Yeast, edge-induced: the single-store path
// every csced match takes. The traced sub-benchmark runs each match under
// a fresh obs.Trace and finishes it, as csced does for every request; the
// untraced one runs it on a bare context, so the pair is the cost of the
// core.read, core.plan and exec.search spans. The compiled one runs each
// pattern from a program compiled once up front, untraced, as csced does on
// a plan-cache hit: no read, no plan, no executor build per match; the
// compiled-traced one is the same under a fresh obs.Trace, which is what
// every plan-cache hit in csced pays.
//
//	go test -run '^$' -bench BenchmarkEngineMatch -benchmem ./internal/core
func BenchmarkEngineMatch(b *testing.B) {
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	e := NewEngine(g)
	patterns, err := dataset.SamplePatterns(g, dataset.PatternConfig{Size: 8, Count: 16, Seed: 2028})
	if err != nil {
		b.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				var tr *obs.Trace
				if traced {
					tr = obs.NewTrace()
					ctx = obs.WithTrace(ctx, tr)
				}
				opts := MatchOptions{Variant: graph.EdgeInduced, Context: ctx}
				if _, err := e.Match(patterns[i%len(patterns)], opts); err != nil {
					b.Fatal(err)
				}
				tr.Finish("bench")
			}
		})
	}
	progs := make([]MatchOptions, len(patterns))
	for i, p := range patterns {
		res, err := e.Match(p, MatchOptions{Variant: graph.EdgeInduced})
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = MatchOptions{Variant: graph.EdgeInduced, Context: context.Background(), Program: res.Program}
	}
	for _, traced := range []bool{false, true} {
		name := "compiled"
		if traced {
			name = "compiled-traced"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := progs[i%len(progs)]
				var tr *obs.Trace
				if traced {
					tr = obs.NewTrace()
					opts.Context = obs.WithTrace(opts.Context, tr)
				}
				if _, err := e.Match(patterns[i%len(patterns)], opts); err != nil {
					b.Fatal(err)
				}
				tr.Finish("bench")
			}
		})
	}
}
