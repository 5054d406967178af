package live

import (
	"context"
	"fmt"
	"testing"

	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/graph"
)

// BenchmarkCommitChurn measures one in-memory commit — apply to the
// writer, publish the snapshot — for the batch the serving benchmark's
// ingest workload sends: 16 deletions of existing edges and the 16
// re-insertions of the same edges, so the graph is the same after every
// batch and the cost cannot drift. No WAL and no subscriber: what is on
// the clock is the ccsr update path and the snapshot swap.
//
// The sub-benchmarks run that batch on the Yeast analogue and on graphs
// with 4 and 16 times its vertices and edges, along two axes. With the
// label alphabet fixed (labels=1x) the graph grows the way a real one does
// — same schema, same number of clusters, each 4 or 16 times larger — and a
// commit that costs what it touches is flat. With the alphabet grown by the
// square root of the scale (labels=2x, 4x) the clusters keep Yeast's mean
// size and their number grows with the graph instead, which isolates the
// one per-commit term that is not per-touched-cluster: the copy of the
// cluster pointer slice, 8 bytes per cluster (see EXPERIMENTS.md "Commit
// cost").
func BenchmarkCommitChurn(b *testing.B) {
	yeast, ok := dataset.ByName("Yeast")
	if !ok {
		b.Fatal("no Yeast dataset in the catalog")
	}
	for _, scale := range []struct{ size, labels int }{{1, 1}, {4, 1}, {16, 1}, {4, 2}, {16, 4}} {
		spec := yeast
		spec.Vertices *= scale.size
		spec.TargetEdges *= scale.size
		spec.VertexLabels *= scale.labels
		b.Run(fmt.Sprintf("vertices=%dx/labels=%dx", scale.size, scale.labels), func(b *testing.B) {
			data := spec.Generate()
			var edges [][2]graph.VertexID
			data.Edges(func(v, w graph.VertexID, _ graph.EdgeLabel) {
				edges = append(edges, [2]graph.VertexID{v, w})
			})
			g := NewGraph("bench", core.NewEngine(data), Options{})
			defer g.Close()
			ctx := context.Background()
			const half = 16
			batch := make([]Mutation, 2*half)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < half; j++ {
					e := edges[(i*half+j)%len(edges)]
					batch[j] = Mutation{Op: OpDeleteEdge, Src: e[0], Dst: e[1]}
					batch[half+j] = Mutation{Op: OpInsertEdge, Src: e[0], Dst: e[1]}
				}
				if _, err := g.Mutate(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
