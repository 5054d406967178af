package ccsr

import (
	"testing"

	"csce/internal/dataset"
	"csce/internal/graph"
)

type edgeKey struct {
	src, dst graph.VertexID
	label    graph.EdgeLabel
}

// canon normalizes an undirected edge so both orientations compare equal.
func canon(directed bool, src, dst graph.VertexID, el graph.EdgeLabel) edgeKey {
	if !directed && dst < src {
		src, dst = dst, src
	}
	return edgeKey{src, dst, el}
}

func collectEdges(t *testing.T, s *Store) map[edgeKey]int {
	t.Helper()
	out := make(map[edgeKey]int)
	s.EdgesAll(func(src, dst graph.VertexID, el graph.EdgeLabel) {
		out[canon(s.Directed(), src, dst, el)]++
	})
	return out
}

func partitionFixtures() []dataset.Spec {
	return []dataset.Spec{
		{Name: "pl", Kind: dataset.PowerLaw, Vertices: 200, TargetEdges: 600, VertexLabels: 4, Seed: 11},
		{Name: "pl-edgelabels", Kind: dataset.PowerLaw, Vertices: 150, TargetEdges: 400, VertexLabels: 3, EdgeLabels: 2, Seed: 12},
		{Name: "road", Kind: dataset.Road, Vertices: 196, TargetEdges: 380, Seed: 13},
		{Name: "cite", Kind: dataset.PowerLaw, Directed: true, Vertices: 180, TargetEdges: 500, VertexLabels: 5, Seed: 14},
	}
}

func TestEdgesAllMatchesGraph(t *testing.T) {
	for _, spec := range partitionFixtures() {
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Generate()
			s := Build(g)
			want := make(map[edgeKey]int)
			g.Edges(func(src, dst graph.VertexID, el graph.EdgeLabel) {
				want[canon(g.Directed(), src, dst, el)]++
			})
			got := collectEdges(t, s)
			if len(got) != len(want) {
				t.Fatalf("EdgesAll saw %d distinct edges, graph has %d", len(got), len(want))
			}
			for k, n := range got {
				if n != 1 {
					t.Fatalf("edge %v emitted %d times", k, n)
				}
				if want[k] != 1 {
					t.Fatalf("edge %v not in source graph", k)
				}
			}
		})
	}
}

func TestPartitionInvariants(t *testing.T) {
	for _, spec := range partitionFixtures() {
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Generate()
			s := Build(g)
			for _, k := range []int{1, 2, 4, 7} {
				owner := func(v graph.VertexID) int { return int(v) % k }
				parts, stats, err := s.Partition(k, owner)
				if err != nil {
					t.Fatalf("Partition k=%d: %v", k, err)
				}
				if len(parts) != k || len(stats) != k {
					t.Fatalf("Partition k=%d returned %d stores, %d stats", k, len(parts), len(stats))
				}
				global := collectEdges(t, s)

				seenLocal := 0
				boundaryHalves := 0
				for i, p := range parts {
					// Full replicated vertex-label array under global IDs.
					if p.NumVertices() != s.NumVertices() {
						t.Fatalf("k=%d shard %d has %d vertices, want %d", k, i, p.NumVertices(), s.NumVertices())
					}
					for v := 0; v < s.NumVertices(); v++ {
						if p.VertexLabel(graph.VertexID(v)) != s.VertexLabel(graph.VertexID(v)) {
							t.Fatalf("k=%d shard %d label mismatch at v%d", k, i, v)
						}
					}
					// Shard i stores exactly the global edges incident to an
					// owned vertex; count boundary edges as we go.
					local := collectEdges(t, parts[i])
					bnd := 0
					for e, n := range local {
						if n != 1 {
							t.Fatalf("k=%d shard %d stores edge %v %d times", k, i, e, n)
						}
						if global[e] != 1 {
							t.Fatalf("k=%d shard %d has edge %v not in the base graph", k, i, e)
						}
						if owner(e.src) != i && owner(e.dst) != i {
							t.Fatalf("k=%d shard %d stores foreign edge %v", k, i, e)
						}
						if owner(e.src) != owner(e.dst) {
							bnd++
						}
					}
					for e := range global {
						if owner(e.src) == i || owner(e.dst) == i {
							if local[e] != 1 {
								t.Fatalf("k=%d shard %d missing incident edge %v", k, i, e)
							}
						}
					}
					if stats[i].BoundaryEdges != bnd {
						t.Fatalf("k=%d shard %d boundary stat %d, counted %d", k, i, stats[i].BoundaryEdges, bnd)
					}
					seenLocal += len(local)
					boundaryHalves += bnd
				}
				// Σ stored − Σ boundary/2 == global edge count (each boundary
				// edge is stored by both owners).
				if boundaryHalves%2 != 0 {
					t.Fatalf("k=%d odd boundary total %d", k, boundaryHalves)
				}
				if got := seenLocal - boundaryHalves/2; got != len(global) {
					t.Fatalf("k=%d reconstructed %d edges, want %d", k, got, len(global))
				}
			}
		})
	}
}

func TestPartitionRejectsBadK(t *testing.T) {
	g := dataset.Spec{Kind: dataset.Road, Vertices: 25, TargetEdges: 40, Seed: 1}.Generate()
	s := Build(g)
	if _, _, err := s.Partition(0, func(graph.VertexID) int { return 0 }); err == nil {
		t.Fatal("Partition(0) should fail")
	}
	if _, _, err := s.Partition(2, func(graph.VertexID) int { return 5 }); err == nil {
		t.Fatal("out-of-range owner should fail")
	}
}
