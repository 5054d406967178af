package ccsr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"csce/internal/dataset"
	"csce/internal/graph"
)

// The dense reference: the cluster as it was built before the row directory
// — fill a numVertices+1 row-start array, index it by vertex id — and, for
// the file format, that array run-length-compressed. It stays here as the
// oracle for buildCluster and the CSR lookups, and denseEncode writes with
// it the bytes that existing checkpoints and .ccsr files hold.

// rle is a run-length-encoded non-decreasing sequence: vals[i] repeats
// counts[i] times.
type rle struct{ vals, counts []uint32 }

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

// denseCSR is one cluster side with a dense row-start array.
type denseCSR struct {
	start []uint32 // numVertices+1
	col   []uint32
}

func (d *denseCSR) row(v int) []uint32 { return d.col[d.start[v]:d.start[v+1]] }

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

// denseCluster builds both sides of a cluster the dense way; in is nil for
// an undirected key, whose pairs must hold both orientations.
func denseCluster(key Key, pairs []pair, numVertices int) (out, in *denseCSR) {
	pairs = slices.Clone(pairs)
	side := func(rowOf, colOf func(pair) graph.VertexID) *denseCSR {
		sort.Slice(pairs, func(i, j int) bool {
			if rowOf(pairs[i]) != rowOf(pairs[j]) {
				return rowOf(pairs[i]) < rowOf(pairs[j])
			}
			return colOf(pairs[i]) < colOf(pairs[j])
		})
		d := &denseCSR{start: make([]uint32, numVertices+1), col: make([]uint32, len(pairs))}
		for i, p := range pairs {
			d.col[i] = colOf(p)
		}
		fillRowStarts(d.start, pairs, rowOf)
		return d
	}
	first := func(p pair) graph.VertexID { return p.a }
	second := func(p pair) graph.VertexID { return p.b }
	out = side(first, second)
	if key.Directed {
		in = side(second, first)
	}
	return out, in
}

// checkCSR compares every lookup of a directory CSR with the dense side,
// for each vertex below numVertices and a few past it (vertices a store
// may add after the cluster was built).
func checkCSR(t testing.TB, got *CSR, want *denseCSR, numVertices int) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("side present: got %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.Len() != len(want.col) {
		t.Fatalf("Len = %d, want %d", got.Len(), len(want.col))
	}
	var nonEmpty []graph.VertexID
	for v := 0; v < numVertices+3; v++ {
		var row []uint32
		if v < numVertices {
			row = want.row(v)
		}
		id := graph.VertexID(v)
		if !slices.Equal(got.Row(id), row) || got.RowLen(id) != len(row) {
			t.Fatalf("row %d = %v (RowLen %d), want %v", v, got.Row(id), got.RowLen(id), row)
		}
		if len(row) > 0 {
			nonEmpty = append(nonEmpty, id)
		}
		for _, w := range row {
			if !got.Has(id, w) {
				t.Fatalf("Has(%d,%d) = false for a stored pair", v, w)
			}
			if _, stored := slices.BinarySearch(row, w+1); !stored && got.Has(id, w+1) {
				t.Fatalf("Has(%d,%d) = true for a pair not stored", v, w+1)
			}
		}
		if _, stored := slices.BinarySearch(row, 0); !stored && got.Has(id, 0) {
			t.Fatalf("Has(%d,0) = true for a pair not stored", v)
		}
	}
	if !slices.Equal(got.NonEmptyRows(), nonEmpty) {
		t.Fatalf("NonEmptyRows = %v, want %v", got.NonEmptyRows(), nonEmpty)
	}
}

// checkCluster compares a matchable cluster with the dense build of pairs.
func checkCluster(t testing.TB, got *Cluster, pairs []pair, numVertices int) {
	t.Helper()
	out, in := denseCluster(got.Key, pairs, numVertices)
	edges := len(pairs)
	if !got.Key.Directed {
		edges /= 2
	}
	if got.NumEdges != edges {
		t.Fatalf("cluster %v: NumEdges = %d, want %d", got.Key, got.NumEdges, edges)
	}
	checkCSR(t, got.Out, out, numVertices)
	checkCSR(t, got.In, in, numVertices)
}

// pairsByKey groups the stored orientations of g's edges by cluster.
func pairsByKey(g *graph.Graph) map[Key][]pair {
	byKey := make(map[Key][]pair)
	g.Edges(func(v, w graph.VertexID, el graph.EdgeLabel) {
		key := NewKey(g.Label(v), g.Label(w), el, g.Directed())
		byKey[key] = append(byKey[key], pair{v, w})
		if !g.Directed() {
			byKey[key] = append(byKey[key], pair{w, v})
		}
	})
	return byKey
}

// denseEncode is the reference encoder: the file Encode must produce for
// graph g, written from dense row-start arrays. keys lists the clusters to
// write, sorted; nil means those g has edges in (a mutated store also
// keeps the clusters it emptied).
func denseEncode(t testing.TB, g *graph.Graph, keys []Key) []byte {
	t.Helper()
	byKey := pairsByKey(g)
	if keys == nil {
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	put := func(xs ...any) { putLE(bw, xs...) }
	put([]byte(codecMagic), uint32(codecVersion), g.Directed(),
		uint64(g.NumVertices()), uint64(g.NumEdges()), g.Labels(), uint64(len(keys)))
	for _, k := range keys {
		out, in := denseCluster(k, byKey[k], g.NumVertices())
		edges := len(out.col)
		if !k.Directed {
			edges /= 2
		}
		put(k.Src, k.Dst, k.Edge, k.Directed, uint64(edges))
		for _, d := range []*denseCSR{out, in} {
			if d != nil {
				r := compressRLE(d.start)
				put(uint64(len(r.vals)), r.vals, r.counts, uint64(len(d.col)), d.col)
			}
		}
	}
	putNames(put, g.Names)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// putLE writes fixed-size values little-endian, as the codec lays them out.
func putLE(w io.Writer, xs ...any) {
	for _, x := range xs {
		if err := binary.Write(w, binary.LittleEndian, x); err != nil {
			panic(err)
		}
	}
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

// mutateRandomly drives a random update history over s — inserts, deletes
// and the occasional AddVertex — keeping the oracle (es, labels) in step.
// onEdit runs after each edge edit with the touched cluster's key and the
// base it had before.
func mutateRandomly(t testing.TB, rng *rand.Rand, s *Store, es edgeSet, labels *[]graph.Label, steps int, onEdit func(Key, *Cluster)) {
	t.Helper()
	directed := s.Directed()
	for step := 0; step < steps; step++ {
		if rng.Intn(40) == 0 {
			l := graph.Label(rng.Intn(3))
			s.AddVertex(l)
			*labels = append(*labels, l)
			continue
		}
		src := graph.VertexID(rng.Intn(len(*labels)))
		dst := graph.VertexID(rng.Intn(len(*labels)))
		el := graph.EdgeLabel(rng.Intn(2))
		if src == dst {
			continue
		}
		key := NewKey((*labels)[src], (*labels)[dst], el, directed)
		var before *Cluster
		if c := s.cluster(key); c != nil {
			before = c.base
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
		if onEdit != nil {
			onEdit(key, before)
		}
	}
}

// TestBuilderMatchesDenseReference pins the row-directory cluster to the
// dense one it replaced, lookup for lookup — Row, RowLen, Has,
// NonEmptyRows, on every vertex and past the last — on random pair lists
// (empty ones and vertex counts far past the last row included); on every
// compaction of a random update history that also grows the vertex count,
// then on every cluster ReadCSR hands out and on EdgesAll; and, as
// whole-store Encode bytes, on random graphs of both directednesses.
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
			checkCluster(t, buildCluster(key, slices.Clone(pairs)).base, pairs, n)
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
			compactions := 0
			mutateRandomly(t, rng, s, es, &labels, 1500, func(key Key, before *Cluster) {
				c := s.cluster(key)
				if c.base == before {
					return
				}
				compactions++ // the edit crossed the threshold (or created the cluster)
				if c.dirty() {
					t.Fatalf("seed %d cluster %v: dirty right after compaction", seed, key)
				}
				checkCluster(t, c.base, clusterPairs(es, labels, key), s.numVertices)
			})
			if compactions < 4 {
				t.Fatalf("seed %d: the history crossed only %d compaction thresholds", seed, compactions)
			}
			// Whatever is still pending is merged by the read; every cluster a
			// query can be handed, the emptied ones included, is the dense one.
			for _, key := range s.Keys() {
				checkCluster(t, s.read(key), clusterPairs(es, labels, key), s.numVertices)
			}
			got := edgeSet{}
			s.EdgesAll(func(src, dst graph.VertexID, el graph.EdgeLabel) {
				if got.has(directed, src, dst, el) {
					t.Fatalf("seed %d: EdgesAll visited (%d,%d,e%d) twice", seed, src, dst, el)
				}
				got[[3]uint32{src, dst, uint32(el)}] = true
			})
			if len(got) != len(es) || len(got) != s.NumEdges() {
				t.Fatalf("seed %d: EdgesAll visited %d edges, oracle has %d, store says %d", seed, len(got), len(es), s.NumEdges())
			}
			for e := range es {
				if !got.has(directed, e[0], e[1], graph.EdgeLabel(e[2])) {
					t.Fatalf("seed %d: EdgesAll missed %v", seed, e)
				}
			}
		}
	})

	t.Run("encode", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			g := randomGraph(seed, 150, 600, 4, 2, seed%2 == 0)
			if !bytes.Equal(encoded(t, Build(g)), denseEncode(t, g, nil)) {
				t.Fatalf("seed %d: Encode differs from the dense reference", seed)
			}
		}
	})
}

// TestEncodeCatalogMatchesDenseReference is the on-disk compatibility gate:
// for every catalog dataset the store encodes to exactly the bytes the
// dense builder and its run-length compression produced, so checkpoints
// and .ccsr files written before the row directory load unchanged, and
// re-encode unchanged. The last case encodes a store whose vertex count
// grew and whose clusters were edited after they were built: its bytes are
// those of the dense build of the graph it has become.
func TestEncodeCatalogMatchesDenseReference(t *testing.T) {
	for _, spec := range dataset.Catalog() {
		if testing.Short() && spec.TargetEdges > 100000 {
			continue
		}
		g := spec.Generate()
		want := denseEncode(t, g, nil)
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

	for seed := int64(0); seed < 4; seed++ {
		directed := seed%2 == 0
		g := randomGraph(seed, 80, 300, 3, 2, directed)
		s := Build(g)
		es := edgeSetOf(g)
		labels := slices.Clone(g.Labels())
		mutateRandomly(t, rand.New(rand.NewSource(seed)), s, es, &labels, 600, nil)
		s.AddVertex(0) // the last vertex has no edge: only the closing runs see it
		labels = append(labels, 0)
		want := denseEncode(t, es.toGraph(labels, directed), s.Keys())
		if !bytes.Equal(encoded(t, s), want) {
			t.Fatalf("seed %d: Encode after AddVertex + mutations differs from the dense reference", seed)
		}
		dec, err := Decode(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(encoded(t, dec), want) || !storesEquivalent(t, dec, s) {
			t.Fatalf("seed %d: decode + encode is not the identity", seed)
		}
	}
}
