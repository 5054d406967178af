package delta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"csce/internal/ccsr"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/plan"
)

func countAll(t testing.TB, store *ccsr.Store, p *graph.Graph, variant graph.Variant) uint64 {
	t.Helper()
	pl, err := plan.Optimize(p, store, variant, plan.ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.ReadCSR(p, variant)
	if err != nil {
		t.Fatal(err)
	}
	st, err := exec.Run(view, pl, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st.Embeddings
}

// TestPropertyDeltaEqualsRecount is the defining property of continuous
// matching: for random graphs, patterns, and insertions,
// count(before) + NewEmbeddings == count(after), for both monotone
// variants, directed and undirected.
func TestPropertyDeltaEqualsRecount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := rng.Intn(2) == 0
		n := 10 + rng.Intn(8)
		b := graph.NewBuilder(directed)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.Label(rng.Intn(3)))
		}
		type edgeT struct {
			s, d graph.VertexID
			l    graph.EdgeLabel
		}
		present := map[edgeT]bool{}
		for i := 0; i < 3*n; i++ {
			v, w := rng.Intn(n), rng.Intn(n)
			if v == w {
				continue
			}
			e := edgeT{graph.VertexID(v), graph.VertexID(w), graph.EdgeLabel(rng.Intn(2))}
			if present[e] || (!directed && present[edgeT{e.d, e.s, e.l}]) {
				continue
			}
			present[e] = true
			b.AddEdge(e.s, e.d, e.l)
		}
		g := b.MustBuild()
		store := ccsr.Build(g)

		// A small connected pattern using the data labels.
		pb := graph.NewBuilder(directed)
		for i := 0; i < 3; i++ {
			pb.AddVertex(graph.Label(rng.Intn(3)))
		}
		pb.AddEdge(0, 1, graph.EdgeLabel(rng.Intn(2)))
		pb.AddEdge(1, 2, graph.EdgeLabel(rng.Intn(2)))
		p := pb.MustBuild()

		// Pick a random absent edge to insert.
		var ins Edge
		found := false
		for tries := 0; tries < 50; tries++ {
			v, w := rng.Intn(n), rng.Intn(n)
			if v == w {
				continue
			}
			e := edgeT{graph.VertexID(v), graph.VertexID(w), graph.EdgeLabel(rng.Intn(2))}
			if present[e] || (!directed && present[edgeT{e.d, e.s, e.l}]) {
				continue
			}
			ins = Edge{Src: e.s, Dst: e.d, Label: e.l}
			found = true
			break
		}
		if !found {
			return true // graph saturated; nothing to test
		}

		for _, variant := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
			before := countAll(t, store, p, variant)
			if err := store.InsertEdge(ins.Src, ins.Dst, ins.Label); err != nil {
				t.Logf("insert: %v", err)
				return false
			}
			delta, err := NewEmbeddings(store, p, ins, Options{Variant: variant})
			if err != nil {
				t.Logf("delta: %v", err)
				return false
			}
			after := countAll(t, store, p, variant)
			if before+delta != after {
				t.Logf("seed %d %v: before=%d delta=%d after=%d", seed, variant, before, delta, after)
				return false
			}
			// Deletion is the mirror image.
			removed, err := RemovedEmbeddings(store, p, ins, Options{Variant: variant})
			if err != nil {
				t.Logf("removed: %v", err)
				return false
			}
			if removed != delta {
				t.Logf("seed %d %v: removed=%d delta=%d", seed, variant, removed, delta)
				return false
			}
			if err := store.DeleteEdge(ins.Src, ins.Dst, ins.Label); err != nil {
				t.Logf("delete: %v", err)
				return false
			}
			if got := countAll(t, store, p, variant); got != before {
				t.Logf("seed %d %v: delete did not restore: %d vs %d", seed, variant, got, before)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaStreamsOnlyNewEmbeddings(t *testing.T) {
	// Star data graph: center A with two B leaves; pattern is an A-B edge.
	// Inserting a third leaf edge must stream exactly the embeddings using
	// it.
	b := graph.NewBuilder(false)
	center := b.AddVertex(0)
	for i := 0; i < 2; i++ {
		leaf := b.AddVertex(1)
		b.AddEdge(center, leaf, 0)
	}
	leaf3 := b.AddVertex(1) // isolated for now
	g := b.MustBuild()
	store := ccsr.Build(g)

	pb := graph.NewBuilder(false)
	pa := pb.AddVertex(0)
	pbv := pb.AddVertex(1)
	pb.AddEdge(pa, pbv, 0)
	p := pb.MustBuild()

	if err := store.InsertEdge(center, leaf3, 0); err != nil {
		t.Fatal(err)
	}
	var seen [][2]graph.VertexID
	delta, err := NewEmbeddings(store, p, Edge{Src: center, Dst: leaf3}, Options{
		Variant: graph.EdgeInduced,
		OnEmbedding: func(m []graph.VertexID) bool {
			seen = append(seen, [2]graph.VertexID{m[pa], m[pbv]})
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if delta != 1 || len(seen) != 1 {
		t.Fatalf("delta = %d, embeddings %v, want exactly the new leaf edge", delta, seen)
	}
	if seen[0][0] != center || seen[0][1] != leaf3 {
		t.Fatalf("streamed wrong embedding %v", seen[0])
	}
}

func TestDeltaHomomorphicExclusion(t *testing.T) {
	// A two-edge path pattern with identical labels can map both pattern
	// edges onto the same inserted edge homomorphically; the exclusion
	// rule must still count each new embedding once (checked against a
	// recount).
	b := graph.NewBuilder(false)
	b.AddVertices(4, 0)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	g := b.MustBuild()
	store := ccsr.Build(g)

	p := graph.Path(3, 0)
	before := countAll(t, store, p, graph.Homomorphic)
	ins := Edge{Src: 2, Dst: 3}
	if err := store.InsertEdge(ins.Src, ins.Dst, 0); err != nil {
		t.Fatal(err)
	}
	delta, err := NewEmbeddings(store, p, ins, Options{Variant: graph.Homomorphic})
	if err != nil {
		t.Fatal(err)
	}
	after := countAll(t, store, p, graph.Homomorphic)
	if before+delta != after {
		t.Fatalf("homomorphic delta wrong: %d + %d != %d", before, delta, after)
	}
}

func TestDeltaRejectsVertexInduced(t *testing.T) {
	g := graph.Clique(4, 0)
	store := ccsr.Build(g)
	_, err := NewEmbeddings(store, graph.Path(3, 0), Edge{Src: 0, Dst: 1}, Options{Variant: graph.VertexInduced})
	if err == nil {
		t.Fatal("vertex-induced delta must be rejected")
	}
}

func TestDeltaLimit(t *testing.T) {
	b := graph.NewBuilder(false)
	center := b.AddVertex(0)
	other := b.AddVertex(0)
	for i := 0; i < 10; i++ {
		leaf := b.AddVertex(1)
		b.AddEdge(center, leaf, 0)
		b.AddEdge(other, leaf, 0)
	}
	g := b.MustBuild()
	store := ccsr.Build(g)
	// Pattern: A-B-A wedge; inserting one more center-leaf edge creates
	// many new wedges.
	pb := graph.NewBuilder(false)
	a1 := pb.AddVertex(0)
	bb := pb.AddVertex(1)
	a2 := pb.AddVertex(0)
	pb.AddEdge(a1, bb, 0)
	pb.AddEdge(bb, a2, 0)
	p := pb.MustBuild()

	leafNew := store.AddVertex(1)
	if err := store.InsertEdge(center, leafNew, 0); err != nil {
		t.Fatal(err)
	}
	if err := store.InsertEdge(other, leafNew, 0); err != nil {
		t.Fatal(err)
	}
	n, err := NewEmbeddings(store, p, Edge{Src: center, Dst: leafNew}, Options{
		Variant: graph.EdgeInduced,
		Limit:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("limited delta = %d, want 1", n)
	}
}

// TestDeltaWithoutPinLeavesStoreAlone pins the pins-first order: a mutated
// edge that no pattern edge can map onto — wrong endpoint labels, or the
// right ones under another edge label — yields 0 before anything is
// planned or read. Reading would compact the pattern's dirty cluster, and
// dropping two tombstones and two columns shrinks the store's byte total,
// so an unchanged total shows the store was not touched; the matching
// edge, as the control, does compact it.
func TestDeltaWithoutPinLeavesStoreAlone(t *testing.T) {
	// A(0)-B(1), A(0)-B(2) and C(3)-C(4), all under edge label 0.
	b := graph.NewBuilder(false)
	a := b.AddVertex(0)
	b1, b2 := b.AddVertex(1), b.AddVertex(1)
	c1, c2 := b.AddVertex(2), b.AddVertex(2)
	b.AddEdge(a, b1, 0)
	b.AddEdge(a, b2, 0)
	b.AddEdge(c1, c2, 0)
	store := ccsr.Build(b.MustBuild())

	pb := graph.NewBuilder(false)
	pb.AddEdge(pb.AddVertex(0), pb.AddVertex(1), 0) // the pattern: one A-B edge
	p := pb.MustBuild()

	// Leave the pattern's cluster dirty, and put an A-B edge under another
	// label next to it.
	if err := store.DeleteEdge(a, b2, 0); err != nil {
		t.Fatal(err)
	}
	if err := store.InsertEdge(a, b2, 1); err != nil {
		t.Fatal(err)
	}
	dirtyBytes := store.CompressedBytes()

	for name, e := range map[string]Edge{
		"other vertex labels": {Src: c1, Dst: c2, Label: 0},
		"other edge label":    {Src: a, Dst: b2, Label: 1},
	} {
		for _, enumerate := range []func(*ccsr.Store, *graph.Graph, Edge, Options) (uint64, error){NewEmbeddings, RemovedEmbeddings} {
			n, err := enumerate(store, p, e, Options{
				Variant:     graph.EdgeInduced,
				OnEmbedding: func([]graph.VertexID) bool { t.Errorf("%s: streamed an embedding", name); return true },
			})
			if err != nil || n != 0 {
				t.Fatalf("%s: got %d, %v; want 0, nil", name, n, err)
			}
			if got := store.CompressedBytes(); got != dirtyBytes {
				t.Fatalf("%s: store went from %d to %d bytes: the no-pin path read it", name, dirtyBytes, got)
			}
		}
	}

	n, err := RemovedEmbeddings(store, p, Edge{Src: a, Dst: b1, Label: 0}, Options{Variant: graph.EdgeInduced})
	if err != nil || n != 1 {
		t.Fatalf("matching edge: got %d, %v; want 1, nil", n, err)
	}
	if got := store.CompressedBytes(); got >= dirtyBytes {
		t.Fatalf("control: reading the pattern's cluster should have compacted it (%d -> %d bytes)", dirtyBytes, got)
	}
}
