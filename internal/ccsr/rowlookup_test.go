package ccsr

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"csce/internal/graph"
)

// checkRowLookups compares Row, RowLen and Has with a sort.Search over the
// directory itself, for every id in [0, last+2] and for 0 and the largest
// id. A directory whose ids run past 1<<20 is probed around each row and
// each bucket start instead of at every id, plus the first 1 024 ids.
func checkRowLookups(t *testing.T, what string, c *CSR) {
	t.Helper()
	last := uint64(0)
	if len(c.rows) > 0 {
		last = uint64(c.rows[len(c.rows)-1])
	}
	probes := []uint64{0, uint64(^graph.VertexID(0))}
	if last < 1<<20 {
		for v := uint64(0); v <= last+2; v++ {
			probes = append(probes, v)
		}
	} else {
		for v := uint64(0); v < 1024; v++ {
			probes = append(probes, v)
		}
		near := func(x uint64) {
			for d := uint64(0); d <= 4; d++ {
				probes = append(probes, x+d, x-d)
			}
		}
		for _, r := range c.rows {
			near(uint64(r))
		}
		for b := 0; b <= len(c.jump()); b++ {
			near(uint64(c.base) + uint64(b)<<c.shift)
		}
	}
	for _, p := range probes {
		if p > uint64(^graph.VertexID(0)) {
			continue
		}
		v := graph.VertexID(p)
		i := sort.Search(len(c.rows), func(i int) bool { return c.rows[i] >= v })
		var want []graph.VertexID
		if i < len(c.rows) && c.rows[i] == v {
			want = c.col[c.offs[i]:c.offs[i+1]]
		}
		got := c.Row(v)
		if !slices.Equal(got, want) || (len(want) > 0 && &got[0] != &want[0]) {
			t.Fatalf("%s: Row(%d) = %v, want %v (base %d, shift %d, jump %v)", what, v, got, want, c.base, c.shift, c.jump())
		}
		if n := c.RowLen(v); n != len(want) {
			t.Fatalf("%s: RowLen(%d) = %d, want %d", what, v, n, len(want))
		}
		for _, w := range append(slices.Clone(want), 0, 1, ^graph.VertexID(0)) {
			if has, ref := c.Has(v, w), slices.Contains(want, w); has != ref {
				t.Fatalf("%s: Has(%d, %d) = %v, want %v", what, v, w, has, ref)
			}
		}
	}
}

// csrOf builds a CSR through newCSR over the ascending directory rows, row
// v holding the 1+v%3 ids from v%4 up.
func csrOf(rows []graph.VertexID) *CSR {
	offs := []uint32{0}
	var col []graph.VertexID
	for _, v := range rows {
		for j := graph.VertexID(0); j <= v%3; j++ {
			col = append(col, v%4+j)
		}
		offs = append(offs, uint32(len(col)))
	}
	return newCSR(rows, offs, col)
}

// TestRowLookupMatchesSearch pins Row, RowLen and Has to a plain search of
// the directory on hits and misses alike: on hand-made directory shapes
// that stress the jump index's buckets, then on every side of a built
// random store, of the same store after InsertEdge-driven compaction, and
// of its Encode/Decode round trip.
func TestRowLookupMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	span := func(from, to, step int) []graph.VertexID {
		var xs []graph.VertexID
		for v := from; v < to; v += step {
			xs = append(xs, graph.VertexID(v))
		}
		return xs
	}
	var sparse []graph.VertexID
	for v := rng.Intn(50); len(sparse) < 300; v += 1 + rng.Intn(60) {
		sparse = append(sparse, graph.VertexID(v))
	}
	top := ^graph.VertexID(0)
	shapes := []struct {
		name string
		rows []graph.VertexID
	}{
		{"empty", nil},
		{"one row", []graph.VertexID{37}},
		{"one row at 0", []graph.VertexID{0}},
		{"seven rows", span(3, 10, 1)},
		{"every id", span(0, 500, 1)},
		{"every id from 1000", span(1000, 1257, 1)},
		{"uniform sparse", sparse},
		{"clustered with one far outlier", append(span(200, 400, 1), 1<<20-3)},
		{"far outlier below a cluster", append([]graph.VertexID{2}, span(900_000, 900_090, 1)...)},
		{"ids at the top of the id space", []graph.VertexID{3 << 30, 3<<30 + 1, 3<<30 + 9, top - 1, top}},
		{"two rows a half id space apart", []graph.VertexID{1, 1<<31 + 5}},
	}
	for _, sh := range shapes {
		checkRowLookups(t, sh.name, csrOf(sh.rows))
	}

	for _, directed := range []bool{false, true} {
		g := randomGraph(21, 600, 2400, 3, 2, directed)
		s := Build(g)
		checkStoreRows(t, fmt.Sprintf("built directed=%v", directed), s)

		es, labels := edgeSetOf(g), slices.Clone(g.Labels())
		compactions := 0
		mutateRandomly(t, rng, s, es, &labels, 3000, func(k Key, before *Cluster) {
			if c := s.cluster(k); before != nil && c.base != before {
				compactions++
			}
		})
		if compactions == 0 {
			t.Fatal("the update history compacted no cluster")
		}
		checkStoreRows(t, fmt.Sprintf("compacted directed=%v", directed), s)

		again, err := Decode(bytes.NewReader(encoded(t, s)))
		if err != nil {
			t.Fatal(err)
		}
		checkStoreRows(t, fmt.Sprintf("decoded directed=%v", directed), again)
	}
}

// checkStoreRows runs checkRowLookups on both sides of every cluster of s.
// Only clean clusters are read, so what is checked is the base the last
// build or compaction left, not one the read compacts on the spot.
func checkStoreRows(t *testing.T, what string, s *Store) {
	t.Helper()
	for _, k := range s.Keys() {
		c := s.cluster(k)
		if c.dirty() {
			continue
		}
		for _, side := range []*CSR{c.base.Out, c.base.In} {
			if side != nil {
				checkRowLookups(t, fmt.Sprintf("%s cluster %v", what, k), side)
			}
		}
	}
}
