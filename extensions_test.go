package csce_test

import (
	"strings"
	"testing"

	"csce"
)

func socialGraph(t *testing.T) *csce.Graph {
	t.Helper()
	g, err := csce.ParseGraph(strings.NewReader(`
t directed
v 0 Person
v 1 Person
v 2 Person
v 3 Person
e 0 1 knows
e 1 2 knows
e 2 0 knows
e 2 3 knows
`))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseQueryPublicAPI(t *testing.T) {
	g := socialGraph(t)
	engine := csce.NewEngine(g)
	p, vars, err := csce.ParseQuery(
		"MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person)-[:knows]->(a)", g)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 3 {
		t.Fatalf("vars = %v", vars)
	}
	n, err := engine.Count(p, csce.Homomorphic)
	if err != nil {
		t.Fatal(err)
	}
	// One directed 3-cycle, counted once per rotation start.
	if n != 3 {
		t.Fatalf("cycle query matched %d times, want 3", n)
	}
	// A one-edge query through Match: every knows edge, once each.
	edge, _, err := csce.ParseQuery("MATCH (a:Person)-[:knows]->(b:Person)", g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Match(edge, csce.MatchOptions{Variant: csce.EdgeInduced})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 4 {
		t.Fatalf("edge query matched %d times, want 4", res.Embeddings)
	}
	if _, _, err := csce.ParseQuery("MATCH (a)-->(b)", g); err == nil {
		t.Fatal("unlabeled node on a labeled graph must error")
	}
}

func TestDeltaMatchingPublicAPI(t *testing.T) {
	g := socialGraph(t)
	engine := csce.NewEngine(g)
	p, _, err := csce.ParseQuery("MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person)", g)
	if err != nil {
		t.Fatal(err)
	}
	before, err := engine.Count(p, csce.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	knows := g.Names.Edge("knows")
	ins := csce.DeltaEdge{Src: 3, Dst: 0, Label: knows}
	if err := engine.InsertEdge(ins.Src, ins.Dst, ins.Label); err != nil {
		t.Fatal(err)
	}
	delta, err := csce.NewEmbeddings(engine, p, ins, csce.DeltaOptions{Variant: csce.EdgeInduced})
	if err != nil {
		t.Fatal(err)
	}
	after, err := engine.Count(p, csce.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	if before+delta != after {
		t.Fatalf("delta accounting: %d + %d != %d", before, delta, after)
	}
	// Mirror image for the deletion.
	removed, err := csce.RemovedEmbeddings(engine, p, ins, csce.DeltaOptions{Variant: csce.EdgeInduced})
	if err != nil {
		t.Fatal(err)
	}
	if removed != delta {
		t.Fatalf("removed (%d) != inserted delta (%d)", removed, delta)
	}
	if err := engine.DeleteEdge(ins.Src, ins.Dst, ins.Label); err != nil {
		t.Fatal(err)
	}
	restored, err := engine.Count(p, csce.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	if restored != before {
		t.Fatalf("delete did not restore the count: %d vs %d", restored, before)
	}
}

func TestHigherOrderPublicAPI(t *testing.T) {
	g, err := csce.ParseGraph(strings.NewReader(`
t undirected
v 0 P
v 1 P
v 2 P
v 3 P
e 0 1
e 1 2
e 0 2
e 2 3
`))
	if err != nil {
		t.Fatal(err)
	}
	engine := csce.NewEngine(g)
	tri := csce.Clique(3, g.Names.Vertex("P"))
	weights, instances, err := engine.BuildHigherOrder(tri, csce.HigherOrderOptions{
		Variant:              csce.EdgeInduced,
		CountAutomorphicOnce: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if instances != 1 {
		t.Fatalf("triangle instances = %d, want 1", instances)
	}
	if weights.Weight(0, 1) != 1 || weights.Weight(2, 3) != 0 {
		t.Fatalf("weights wrong: %v", weights)
	}
}
