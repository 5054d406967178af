package exec

import (
	"math/rand"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

// benchSetup builds one deterministic data graph, pattern, plan, and view
// so every benchmark iteration measures only the extension search.
func benchSetup(b *testing.B, patternSize int) (*ccsr.View, *plan.Plan) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 3000, 15000, 4, 2, true)
	p := randomConnectedPattern(rng, patternSize, 4, 2, true)
	store := ccsr.Build(g)
	pl, err := plan.Optimize(p, store, graph.Homomorphic, plan.ModeCSCE)
	if err != nil {
		b.Fatalf("optimize: %v", err)
	}
	view, err := store.ReadCSR(p, graph.Homomorphic)
	if err != nil {
		b.Fatalf("read: %v", err)
	}
	return view, pl
}

// BenchmarkExtend is the allocation ground truth behind the //csce:hotpath
// annotations in engine.go: allocs/op here is dominated by engine
// construction plus whatever the extend/intersect loop leaks per step.
// The static gate (cscelint -checks allocfree) catches escape-visible
// regressions; this catches the append-growth and inlining cases it
// cannot see.
func BenchmarkExtend(b *testing.B) {
	view, pl := benchSetup(b, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(view, pl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtendPinned drives the delta-matching path: a pinned level's
// candidate list used to be rebuilt with a fresh one-element slice on
// every visit; it is now a slice built once at engine construction.
func BenchmarkExtendPinned(b *testing.B) {
	view, pl := benchSetup(b, 5)
	u := pl.Order[len(pl.Order)-1]
	var pin graph.VertexID
	for v := 0; v < view.NumVertices(); v++ {
		if view.VertexLabel(graph.VertexID(v)) == pl.Pattern.Label(u) {
			pin = graph.VertexID(v)
			break
		}
	}
	opts := Options{Pinned: [][2]graph.VertexID{{u, pin}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(view, pl, opts); err != nil {
			b.Fatal(err)
		}
	}
}
