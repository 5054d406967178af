package core

import (
	"math/rand"
	"testing"

	"csce/internal/baseline"
	"csce/internal/dataset"
	"csce/internal/graph"
)

// TestMidScaleDifferentialAgainstBacktracking cross-checks the engine
// against the independent backtracking baseline on graphs far beyond the
// exhaustive oracle's reach (hundreds of vertices, thousands of edges).
// The two implementations share no code paths beyond the graph model, so
// agreement here guards against scale-dependent bugs — cache invalidation,
// factorization eligibility, cluster decompression — that tiny graphs
// cannot expose.
func TestMidScaleDifferentialAgainstBacktracking(t *testing.T) {
	specs := []dataset.Spec{
		{Name: "mid-ppi", Kind: dataset.PPI, Vertices: 400, TargetEdges: 1600, VertexLabels: 5, Seed: 21},
		{Name: "mid-power", Kind: dataset.PowerLaw, Vertices: 500, TargetEdges: 2500, VertexLabels: 8, Seed: 22},
		{Name: "mid-directed", Kind: dataset.PowerLaw, Directed: true, Vertices: 450, TargetEdges: 2000, VertexLabels: 6, Seed: 23},
	}
	bt := baseline.NewBacktrack()
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Generate()
			engine := NewEngine(g)
			rng := rand.New(rand.NewSource(spec.Seed))
			for i := 0; i < 4; i++ {
				size := 5 + rng.Intn(3)
				p, err := dataset.SamplePattern(g, size, i%2 == 0, rng)
				if err != nil {
					t.Fatalf("sample %d: %v", i, err)
				}
				for _, variant := range graph.Variants() {
					want, err := bt.Match(g, p, variant, baseline.Options{})
					if err != nil {
						t.Fatal(err)
					}
					got, err := engine.Count(p, variant)
					if err != nil {
						t.Fatal(err)
					}
					if got != want.Embeddings {
						t.Fatalf("pattern %d (size %d) %v: engine %d, backtracking %d",
							i, size, variant, got, want.Embeddings)
					}
				}
			}
		})
	}
}

// TestMidScaleUpdatesKeepAgreement runs a burst of random engine updates
// on a mid-size graph and re-checks agreement with the baseline afterward,
// covering compaction paths that small update tests never reach.
func TestMidScaleUpdatesKeepAgreement(t *testing.T) {
	spec := dataset.Spec{Name: "mid-upd", Kind: dataset.PowerLaw, Vertices: 300, TargetEdges: 1500, VertexLabels: 4, Seed: 31}
	g := spec.Generate()
	engine := NewEngine(g)
	rng := rand.New(rand.NewSource(31))

	type edgeT struct {
		s, d graph.VertexID
	}
	inBase := map[edgeT]bool{}
	g.Edges(func(a, b graph.VertexID, _ graph.EdgeLabel) { inBase[edgeT{a, b}] = true })
	var added []edgeT
	// Enough inserts to trigger compaction in the hottest clusters.
	for len(added) < 400 {
		s := graph.VertexID(rng.Intn(g.NumVertices()))
		d := graph.VertexID(rng.Intn(g.NumVertices()))
		if s == d || inBase[edgeT{s, d}] || inBase[edgeT{d, s}] {
			continue
		}
		if err := engine.InsertEdge(s, d, 0); err != nil {
			continue
		}
		inBase[edgeT{s, d}] = true
		added = append(added, edgeT{s, d})
	}
	// Delete half of them again.
	for _, e := range added[:200] {
		if err := engine.DeleteEdge(e.s, e.d, 0); err != nil {
			t.Fatal(err)
		}
		delete(inBase, e)
	}

	// Rebuild the reference graph and compare counts.
	b := graph.NewBuilder(false)
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.Label(graph.VertexID(v)))
	}
	for e := range inBase {
		b.AddEdge(e.s, e.d, 0)
	}
	ref := b.MustBuild()
	bt := baseline.NewBacktrack()
	p, err := dataset.SamplePattern(ref, 6, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range graph.Variants() {
		want, err := bt.Match(ref, p, variant, baseline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.Count(p, variant)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Embeddings {
			t.Fatalf("%v after updates: engine %d, backtracking %d", variant, got, want.Embeddings)
		}
	}
}
