package ccsr

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"csce/internal/graph"
)

// edgeSet mirrors the store's edge content so random edit sequences can
// be replayed into a from-scratch rebuild for comparison.
type edgeSet map[[3]uint32]bool

func edgeSetOf(g *graph.Graph) edgeSet {
	es := edgeSet{}
	g.Edges(func(a, b graph.VertexID, l graph.EdgeLabel) {
		es[[3]uint32{uint32(a), uint32(b), uint32(l)}] = true
	})
	return es
}

func (es edgeSet) toGraph(labels []graph.Label, directed bool) *graph.Graph {
	b := graph.NewBuilder(directed)
	for _, l := range labels {
		b.AddVertex(l)
	}
	for e := range es {
		b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.EdgeLabel(e[2]))
	}
	return b.MustBuild()
}

func (es edgeSet) has(directed bool, src, dst graph.VertexID, l graph.EdgeLabel) bool {
	if es[[3]uint32{uint32(src), uint32(dst), uint32(l)}] {
		return true
	}
	return !directed && es[[3]uint32{uint32(dst), uint32(src), uint32(l)}]
}

// storesEquivalent compares every cluster of two stores structurally.
func storesEquivalent(t testing.TB, a, b *Store) bool {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Logf("header mismatch: %d/%d vs %d/%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
		return false
	}
	keysA, keysB := liveKeys(a), liveKeys(b)
	if len(keysA) != len(keysB) {
		t.Logf("cluster count mismatch: %d vs %d", len(keysA), len(keysB))
		return false
	}
	for i, k := range keysA {
		if keysB[i] != k {
			t.Logf("key mismatch: %v vs %v", k, keysB[i])
			return false
		}
		ca, cb := a.read(k), b.read(k)
		for v := 0; v < a.NumVertices(); v++ {
			ra, rb := ca.Out.Row(graph.VertexID(v)), cb.Out.Row(graph.VertexID(v))
			if len(ra) != len(rb) {
				t.Logf("cluster %v row %d: %v vs %v", k, v, ra, rb)
				return false
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Logf("cluster %v row %d: %v vs %v", k, v, ra, rb)
					return false
				}
			}
		}
	}
	return true
}

// liveKeys lists cluster keys with at least one edge, sorted.
func liveKeys(s *Store) []Key {
	var out []Key
	for _, k := range s.Keys() {
		if s.ClusterSize(k) > 0 {
			out = append(out, k)
		}
	}
	return out
}

// TestPropertyIncrementalEqualsRebuild is the central update property: a
// store mutated by any sequence of inserts and deletes is structurally
// identical to clustering the mutated graph from scratch.
func TestPropertyIncrementalEqualsRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := rng.Intn(2) == 0
		n := 8 + rng.Intn(12)
		labels := make([]graph.Label, n)
		b := graph.NewBuilder(directed)
		for i := range labels {
			labels[i] = graph.Label(rng.Intn(3))
			b.AddVertex(labels[i])
		}
		for i := 0; i < 3*n; i++ {
			v, w := rng.Intn(n), rng.Intn(n)
			if v != w {
				b.AddEdge(graph.VertexID(v), graph.VertexID(w), graph.EdgeLabel(rng.Intn(2)))
			}
		}
		g := b.MustBuild()
		store := Build(g)
		es := edgeSetOf(g)

		// Random edit sequence, mirrored into the edge set.
		for step := 0; step < 120; step++ {
			src := graph.VertexID(rng.Intn(n))
			dst := graph.VertexID(rng.Intn(n))
			if src == dst {
				continue
			}
			l := graph.EdgeLabel(rng.Intn(2))
			key := [3]uint32{uint32(src), uint32(dst), uint32(l)}
			if rng.Intn(2) == 0 {
				if es.has(directed, src, dst, l) {
					continue
				}
				if err := store.InsertEdge(src, dst, l); err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				es[key] = true
			} else {
				if !es.has(directed, src, dst, l) {
					continue
				}
				if err := store.DeleteEdge(src, dst, l); err != nil {
					t.Logf("delete: %v", err)
					return false
				}
				// Remove whichever orientation the set holds.
				delete(es, key)
				if !directed {
					delete(es, [3]uint32{uint32(dst), uint32(src), uint32(l)})
				}
			}
		}
		rebuilt := Build(es.toGraph(labels, directed))
		return storesEquivalent(t, store, rebuilt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteValidation(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 B\ne 0 1\n")
	s := Build(g)
	if err := s.InsertEdge(0, 0, 0); err == nil {
		t.Fatal("self-loop insert must fail")
	}
	if err := s.InsertEdge(0, 9, 0); err == nil {
		t.Fatal("out-of-range insert must fail")
	}
	if err := s.InsertEdge(0, 1, 0); err == nil {
		t.Fatal("duplicate insert must fail")
	}
	if err := s.InsertEdge(1, 0, 0); err == nil {
		t.Fatal("duplicate insert must fail for the reverse orientation too (undirected)")
	}
	if err := s.DeleteEdge(0, 1, 5); err == nil {
		t.Fatal("deleting a missing label must fail")
	}
	if err := s.DeleteEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 0 {
		t.Fatalf("edge count = %d after delete", s.NumEdges())
	}
	if err := s.DeleteEdge(0, 1, 0); err == nil {
		t.Fatal("double delete must fail")
	}
	// Reinsert after delete (tombstone cancellation).
	if err := s.InsertEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 1 {
		t.Fatalf("edge count = %d after reinsert", s.NumEdges())
	}
}

func TestAddVertexExtendsClusters(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 A\ne 0 1\n")
	s := Build(g)
	v := s.AddVertex(0) // another A
	if int(v) != 2 || s.NumVertices() != 3 {
		t.Fatalf("new vertex id %d, count %d", v, s.NumVertices())
	}
	if err := s.InsertEdge(0, v, 0); err != nil {
		t.Fatal(err)
	}
	pb := graph.NewBuilder(false)
	pb.AddVertex(0)
	pb.AddVertex(0)
	pb.AddEdge(0, 1, 0)
	view, err := s.ReadCSR(pb.MustBuild(), graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	c := view.EdgeCluster(0, 0, 0)
	if c == nil {
		t.Fatal("cluster missing")
	}
	row := c.Out.Row(0)
	if len(row) != 2 || row[0] != 1 || row[1] != 2 {
		t.Fatalf("row of v0 = %v, want [1 2]", row)
	}
}

func TestCompactionTriggers(t *testing.T) {
	// Insert enough edges into one cluster to cross the compaction
	// threshold; the overlay must drain.
	b := graph.NewBuilder(false)
	b.AddVertices(400, 0)
	b.AddEdge(0, 1, 0)
	s := Build(b.MustBuild())
	key := NewKey(0, 0, 0, false)
	for i := 2; i < 200; i++ {
		if err := s.InsertEdge(0, graph.VertexID(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	c := s.cluster(key)
	if c.dirty() && len(c.addPairs) > 2*deltaCompactionMin+16 {
		t.Fatalf("overlay never compacted: %d adds", len(c.addPairs))
	}
	if got := s.ClusterSize(key); got != 199 {
		t.Fatalf("cluster size = %d, want 199", got)
	}
}

func TestEncodeCompactsOverlays(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 A\nv 2 A\ne 0 1\n")
	s := Build(g)
	if err := s.InsertEdge(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumEdges() != 2 {
		t.Fatalf("decoded edge count = %d, want 2", s2.NumEdges())
	}
	if !storesEquivalent(t, s, s2) {
		t.Fatal("encode/decode after updates not equivalent")
	}
}

func TestApplyBatch(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 A\nv 2 B\ne 0 1\n")
	s := Build(g)
	err := s.ApplyBatch([]Edit{
		{Kind: EditAddVertex, Label: 1},    // v3, label B
		{Kind: EditInsert, Src: 0, Dst: 2}, // A-B
		{Kind: EditInsert, Src: 1, Dst: 3}, // A-B (new vertex)
		{Kind: EditDelete, Src: 0, Dst: 1}, // drop the base edge
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 4 || s.NumEdges() != 2 {
		t.Fatalf("after batch: %d vertices %d edges, want 4 and 2", s.NumVertices(), s.NumEdges())
	}
	// Compaction ran: no cluster stays dirty.
	for _, c := range s.clusters {
		k := c.Key
		if c.dirty() {
			t.Fatalf("cluster %v still dirty after batch", k)
		}
	}
	// Equivalent to a scratch rebuild.
	nb := graph.NewBuilder(false)
	nb.AddVertex(0) // A
	nb.AddVertex(0) // A
	nb.AddVertex(1) // B
	nb.AddVertex(1) // B
	nb.AddEdge(0, 2, 0)
	nb.AddEdge(1, 3, 0)
	if !storesEquivalent(t, s, Build(nb.MustBuild())) {
		t.Fatal("batched store differs from rebuild")
	}
}

func TestApplyBatchReportsFailingIndex(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 A\ne 0 1\n")
	s := Build(g)
	err := s.ApplyBatch([]Edit{
		{Kind: EditDelete, Src: 0, Dst: 1},
		{Kind: EditDelete, Src: 0, Dst: 1}, // double delete fails
	})
	if err == nil || !strings.Contains(err.Error(), "edit 1") {
		t.Fatalf("error must name the failing edit: %v", err)
	}
	// The applied prefix remains.
	if s.NumEdges() != 0 {
		t.Fatalf("prefix not applied: %d edges", s.NumEdges())
	}
	if err := s.ApplyBatch([]Edit{{Kind: 99}}); err == nil {
		t.Fatal("unknown edit kind must error")
	}
}
