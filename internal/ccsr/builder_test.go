package ccsr

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"csce/internal/dataset"
	"csce/internal/graph"
)

// The dense reference: the cluster builder as it was before the run-emitting
// one — fill a numVertices+1 row-start array, then run-length-compress it.
// It stays here as the oracle for buildCluster; the at-rest bytes it
// produces are the format existing checkpoints and .ccsr files hold.

func compressRLE(xs []uint32) rle {
	var r rle
	for _, x := range xs {
		if n := len(r.vals); n > 0 && r.vals[n-1] == x {
			r.counts[n-1]++
		} else {
			r.vals = append(r.vals, x)
			r.counts = append(r.counts, 1)
		}
	}
	return r
}

func fillRowStarts(rowStart []uint32, pairs []pair, rowOf func(pair) graph.VertexID) {
	n := len(rowStart) - 1
	cur := 0
	for v := 0; v < n; v++ {
		rowStart[v] = uint32(cur)
		for cur < len(pairs) && int(rowOf(pairs[cur])) == v {
			cur++
		}
	}
	rowStart[n] = uint32(cur)
}

func denseCluster(key Key, pairs []pair, numVertices int) *Compressed {
	pairs = slices.Clone(pairs)
	c := &Compressed{Key: key, NumEdges: len(pairs)}
	if !key.Directed {
		c.NumEdges /= 2
	}
	side := func(rowOf, colOf func(pair) graph.VertexID) (rle, []uint32) {
		sort.Slice(pairs, func(i, j int) bool {
			if rowOf(pairs[i]) != rowOf(pairs[j]) {
				return rowOf(pairs[i]) < rowOf(pairs[j])
			}
			return colOf(pairs[i]) < colOf(pairs[j])
		})
		start := make([]uint32, numVertices+1)
		col := make([]uint32, len(pairs))
		for i, p := range pairs {
			col[i] = colOf(p)
		}
		fillRowStarts(start, pairs, rowOf)
		return compressRLE(start), col
	}
	first := func(p pair) graph.VertexID { return p.a }
	second := func(p pair) graph.VertexID { return p.b }
	c.outRow, c.outCol = side(first, second)
	if key.Directed {
		c.inRow, c.inCol = side(second, first)
	}
	return c
}

// denseStore is Build with every cluster made by the dense reference.
func denseStore(g *graph.Graph) *Store {
	s := Build(g)
	for i, c := range s.clusters {
		s.clusters[i] = denseCluster(c.Key, c.mergedPairs(), s.numVertices)
	}
	return s
}

func sameArrays(a, b *Compressed) bool {
	return a.NumEdges == b.NumEdges &&
		slices.Equal(a.outRow.vals, b.outRow.vals) && slices.Equal(a.outRow.counts, b.outRow.counts) &&
		slices.Equal(a.outCol, b.outCol) &&
		slices.Equal(a.inRow.vals, b.inRow.vals) && slices.Equal(a.inRow.counts, b.inRow.counts) &&
		slices.Equal(a.inCol, b.inCol)
}

func encoded(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// clusterPairs lists the stored orientations of the oracle's edges that
// fall into cluster key.
func clusterPairs(es edgeSet, labels []graph.Label, key Key) []pair {
	var pairs []pair
	for e := range es {
		src, dst, el := e[0], e[1], graph.EdgeLabel(e[2])
		if NewKey(labels[src], labels[dst], el, key.Directed) != key {
			continue
		}
		pairs = append(pairs, pair{src, dst})
		if !key.Directed {
			pairs = append(pairs, pair{dst, src})
		}
	}
	return pairs
}

// TestBuilderMatchesDenseReference pins the run-emitting builder to the
// dense one it replaced, array for array: on random pair lists (empty
// ones and vertex counts far past the last row included), on every
// compaction of a random update history that also grows the vertex count,
// and — as whole-store Encode bytes — on random graphs of both
// directednesses.
func TestBuilderMatchesDenseReference(t *testing.T) {
	t.Run("pair lists", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for iter := 0; iter < 400; iter++ {
			directed := iter%2 == 0
			rows := 1 + rng.Intn(40)
			seen := map[pair]bool{}
			var pairs []pair
			for i := rng.Intn(3 * rows); i > 0; i-- { // 0 pairs: an empty cluster
				p := pair{graph.VertexID(rng.Intn(rows)), graph.VertexID(rng.Intn(rows))}
				if p.a == p.b || seen[p] {
					continue
				}
				seen[p], seen[pair{p.b, p.a}] = true, true
				pairs = append(pairs, p)
				if !directed {
					pairs = append(pairs, pair{p.b, p.a})
				}
			}
			n := rows + rng.Intn(3)*rng.Intn(50) // often grown well past the last row
			key := Key{Directed: directed}
			want := denseCluster(key, pairs, n)
			got := buildCluster(key, slices.Clone(pairs), n)
			if !sameArrays(got, want) {
				t.Fatalf("iter %d (directed=%v, n=%d, %d pairs):\n got %+v\nwant %+v", iter, directed, n, len(pairs), got, want)
			}
		}
	})

	t.Run("update history", func(t *testing.T) {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			directed := seed%2 == 0
			g := randomGraph(seed, 60, 150, 3, 2, directed)
			s := Build(g)
			es := edgeSetOf(g)
			labels := slices.Clone(g.Labels())
			// check compares cluster key, which the store compacted at the
			// current vertex count, with the dense build of the oracle's
			// pairs at that count.
			checks := 0
			check := func(key Key) {
				t.Helper()
				checks++
				want := denseCluster(key, clusterPairs(es, labels, key), s.numVertices)
				if got := s.cluster(key); got.dirty() || !sameArrays(got, want) {
					t.Fatalf("seed %d cluster %v at %d vertices:\n got %+v\nwant %+v", seed, key, s.numVertices, got, want)
				}
			}
			for step := 0; step < 1500; step++ {
				if rng.Intn(40) == 0 {
					l := graph.Label(rng.Intn(3))
					s.AddVertex(l)
					labels = append(labels, l)
					continue
				}
				src := graph.VertexID(rng.Intn(len(labels)))
				dst := graph.VertexID(rng.Intn(len(labels)))
				el := graph.EdgeLabel(rng.Intn(2))
				if src == dst {
					continue
				}
				key := NewKey(labels[src], labels[dst], el, directed)
				var base *uint32 // the touched cluster's column array before the edit
				if c := s.cluster(key); c != nil {
					base = unsafe.SliceData(c.outCol)
				}
				if es.has(directed, src, dst, el) {
					if err := s.DeleteEdge(src, dst, el); err != nil {
						t.Fatal(err)
					}
					delete(es, [3]uint32{src, dst, uint32(el)})
					if !directed {
						delete(es, [3]uint32{dst, src, uint32(el)})
					}
				} else {
					if err := s.InsertEdge(src, dst, el); err != nil {
						t.Fatal(err)
					}
					es[[3]uint32{src, dst, uint32(el)}] = true
				}
				if unsafe.SliceData(s.cluster(key).outCol) != base { // the edit crossed the compaction threshold
					check(key)
				}
			}
			var dirty []Key
			for _, c := range s.clusters {
				key := c.Key
				if c.dirty() {
					dirty = append(dirty, key)
				}
			}
			s.compactDirty()
			for _, key := range dirty {
				check(key)
			}
			if checks <= len(dirty) {
				t.Fatalf("seed %d: the history never crossed a compaction threshold", seed)
			}
		}
	})

	t.Run("encode", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			g := randomGraph(seed, 150, 600, 4, 2, seed%2 == 0)
			if !bytes.Equal(encoded(t, Build(g)), encoded(t, denseStore(g))) {
				t.Fatalf("seed %d: Encode differs from the dense reference", seed)
			}
		}
	})
}

// TestEncodeCatalogMatchesDenseReference is the on-disk compatibility gate:
// for every catalog dataset the store encodes to exactly the bytes the
// dense builder produced, so checkpoints and .ccsr files written before the
// run-emitting builder load unchanged, and re-encode unchanged.
func TestEncodeCatalogMatchesDenseReference(t *testing.T) {
	for _, spec := range dataset.Catalog() {
		if testing.Short() && spec.TargetEdges > 100000 {
			continue
		}
		g := spec.Generate()
		want := encoded(t, denseStore(g))
		if !bytes.Equal(encoded(t, Build(g)), want) {
			t.Fatalf("%s: Encode differs from the dense reference", spec.Name)
		}
		dec, err := Decode(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !bytes.Equal(encoded(t, dec), want) {
			t.Fatalf("%s: decode + encode is not the identity", spec.Name)
		}
	}
}
