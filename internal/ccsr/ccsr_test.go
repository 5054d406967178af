package ccsr

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"csce/internal/graph"
)

// randomGraph builds a seeded random labeled graph for property tests.
func randomGraph(seed int64, n, m, labels, edgeLabels int, directed bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(directed)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		v := graph.VertexID(rng.Intn(n))
		w := graph.VertexID(rng.Intn(n))
		if v == w {
			continue
		}
		var el graph.EdgeLabel
		if edgeLabels > 0 {
			el = graph.EdgeLabel(rng.Intn(edgeLabels))
		}
		b.AddEdge(v, w, el)
	}
	return b.MustBuild()
}

func fig1Graph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.ParseString(`
t directed
v 0 A
v 1 B
v 2 C
v 3 A
v 4 B
v 5 B
v 6 D
v 7 C
v 8 A
v 9 C
e 0 1
e 0 5
e 0 2
e 0 9
e 6 0
e 3 4
e 3 2
e 1 2
e 4 7
e 8 7
e 8 9
`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildClusterPartition(t *testing.T) {
	g := fig1Graph(t)
	s := Build(g)
	total := 0
	for _, k := range s.Keys() {
		total += s.ClusterSize(k)
	}
	if total != g.NumEdges() {
		t.Fatalf("cluster sizes sum to %d, want %d (each edge in exactly one cluster)",
			total, g.NumEdges())
	}
	if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("store size mismatch: %d/%d", s.NumVertices(), s.NumEdges())
	}
}

func TestFig4Clusters(t *testing.T) {
	g := fig1Graph(t)
	s := Build(g)
	names := g.Names
	a, b := names.Vertex("A"), names.Vertex("B")

	// The (A,B,NULL)-cluster of Fig. 4 holds the A->B edges:
	// v1->v2, v1->v6, v4->v5  (IDs 0->1, 0->5, 3->4).
	key := NewKey(a, b, 0, true)
	if got := s.ClusterSize(key); got != 3 {
		t.Fatalf("(A,B) cluster size = %d, want 3", got)
	}
	view, err := s.ReadCSR(graph.MustParse("t directed\nv 0 A\nv 1 B\ne 0 1\n"), graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	c := view.Cluster(key)
	if c == nil {
		t.Fatal("cluster not loaded")
	}
	// Outgoing CSR: v1 (ID 0) has outgoing B-neighbors v2 and v6 (IDs 1, 5).
	row := c.Out.Row(0)
	if len(row) != 2 || row[0] != 1 || row[1] != 5 {
		t.Fatalf("out row of v1 = %v, want [1 5]", row)
	}
	// Incoming CSR: v5 (ID 4) has incoming A-neighbor v4 (ID 3).
	in := c.In.Row(4)
	if len(in) != 1 || in[0] != 3 {
		t.Fatalf("in row of v5 = %v, want [3]", in)
	}
	if c.Out.Len() != c.In.Len() || c.Out.Len() != 3 {
		t.Fatalf("|I_C| must equal the cluster size in both CSRs: %d/%d", c.Out.Len(), c.In.Len())
	}
}

func TestRowIndexBound(t *testing.T) {
	// The paper bounds the compressed row index at 2 integers per edge;
	// the row directory costs 2 per non-empty row, plus one closing offset.
	// The jump index adds fewer than len(rows)/jumpRows entries (none below
	// 2*jumpRows rows), at most 1/16 of the directory, all in the capacity
	// of offs, which bytes() counts — whether Build or Decode made the side.
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 200, 800, 4, 2, seed%2 == 0)
		s := Build(g)
		d, err := Decode(bytes.NewReader(encoded(t, s)))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []*Store{s, d} {
			for _, c := range st.clusters {
				for _, side := range []*CSR{c.base.Out, c.base.In} {
					if side == nil {
						continue
					}
					if len(side.offs) != len(side.rows)+1 || len(side.rows)+len(side.offs) > 2*side.Len()+1 {
						t.Fatalf("cluster %v: %d row ids + %d offsets for %d columns", c.Key, len(side.rows), len(side.offs), side.Len())
					}
					jump := side.jump()
					if len(jump) >= max(1, len(side.rows)/jumpRows) || 16*len(jump) > len(side.rows)+len(side.offs) {
						t.Fatalf("cluster %v: %d jump entries for %d rows", c.Key, len(jump), len(side.rows))
					}
					if want := 4 * (len(side.rows) + len(side.offs) + len(side.col) + len(jump)); side.bytes() != want {
						t.Fatalf("cluster %v: bytes() = %d, want %d", c.Key, side.bytes(), want)
					}
				}
			}
		}
	}
}

// TestClusterAdjacencyEqualsGraph is the core CCSR correctness property:
// for every data edge (v,w,l) the cluster keyed by its labels contains it,
// and clusters contain nothing else.
func TestClusterAdjacencyEqualsGraph(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		directed := seed%2 == 0
		g := randomGraph(seed, 120, 500, 3, 2, directed)
		s := Build(g)

		// Load every cluster through a view by matching the trivial pattern
		// of each cluster key.
		total := 0
		for _, k := range s.Keys() {
			pb := graph.NewBuilder(directed)
			pb.AddVertex(k.Src)
			pb.AddVertex(k.Dst)
			pb.AddEdge(0, 1, k.Edge)
			view, err := s.ReadCSR(pb.MustBuild(), graph.EdgeInduced)
			if err != nil {
				t.Fatal(err)
			}
			c := view.Cluster(k)
			if c == nil {
				t.Fatalf("cluster %v missing after ReadCSR", k)
			}
			// Every cluster entry is a real graph edge with matching labels.
			for v := 0; v < s.NumVertices(); v++ {
				for _, w := range c.Out.Row(graph.VertexID(v)) {
					if directed {
						srcOK := g.Label(graph.VertexID(v)) == k.Src && g.Label(w) == k.Dst
						if !srcOK || !g.HasEdgeLabeled(graph.VertexID(v), w, k.Edge) {
							t.Fatalf("cluster %v contains non-edge (%d,%d)", k, v, w)
						}
					} else if !g.HasEdgeLabeled(graph.VertexID(v), w, k.Edge) {
						t.Fatalf("cluster %v contains non-edge (%d,%d)", k, v, w)
					}
				}
			}
			total += c.NumEdges
		}
		if total != g.NumEdges() {
			t.Fatalf("seed %d: clusters cover %d edges, want %d", seed, total, g.NumEdges())
		}
	}
}

func TestUndirectedClusterBothOrientations(t *testing.T) {
	g := randomGraph(3, 60, 200, 3, 1, false)
	s := Build(g)
	for _, k := range s.Keys() {
		pb := graph.NewBuilder(false)
		pb.AddVertex(k.Src)
		pb.AddVertex(k.Dst)
		pb.AddEdge(0, 1, k.Edge)
		view, err := s.ReadCSR(pb.MustBuild(), graph.EdgeInduced)
		if err != nil {
			t.Fatal(err)
		}
		c := view.Cluster(k)
		for v := 0; v < s.NumVertices(); v++ {
			for _, w := range c.Out.Row(graph.VertexID(v)) {
				if !c.Out.Has(w, graph.VertexID(v)) {
					t.Fatalf("undirected cluster %v misses reverse orientation of (%d,%d)", k, v, w)
				}
			}
		}
	}
}

func TestCSRHelpers(t *testing.T) {
	c := newCSR([]graph.VertexID{0, 2}, []uint32{0, 2, 3}, []graph.VertexID{5, 9, 7})
	if got := c.Row(0); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("Row(0) = %v", got)
	}
	if c.RowLen(1) != 0 || c.RowLen(2) != 1 {
		t.Fatal("RowLen wrong")
	}
	if !c.Has(0, 9) || c.Has(0, 7) || c.Has(1, 5) {
		t.Fatal("Has wrong")
	}
	ne := c.NonEmptyRows()
	if len(ne) != 2 || ne[0] != 0 || ne[1] != 2 {
		t.Fatalf("NonEmptyRows = %v", ne)
	}
}

// TestSeekMatchesLinearScan checks the galloping search against the obvious
// scan at every start position and probe value, on lists whose gaps span
// the stride lengths the gallop doubles through.
func TestSeekMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var xs []graph.VertexID
		v := graph.VertexID(0)
		for i := rng.Intn(40); i > 0; i-- {
			v += graph.VertexID(1 + rng.Intn(1+rng.Intn(9)))
			xs = append(xs, v)
		}
		for from := 0; from <= len(xs)+1; from++ {
			for probe := graph.VertexID(0); probe <= v+2; probe++ {
				want := from
				for want < len(xs) && xs[want] < probe {
					want++
				}
				if got := Seek(xs, from, probe); got != want {
					t.Fatalf("Seek(%v, %d, %d) = %d, want %d", xs, from, probe, got, want)
				}
			}
		}
	}
}

func TestReadCSRSelectsOnlyNeededClusters(t *testing.T) {
	g := fig1Graph(t)
	s := Build(g)
	p := graph.MustParse("t directed\nv 0 A\nv 1 B\ne 0 1\n")
	view, err := s.ReadCSR(p, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	if view.NumClusters() != 1 {
		t.Fatalf("edge-induced view loaded %d clusters, want 1", view.NumClusters())
	}
	// Vertex-induced loads negation clusters too: pattern v0 A, v1 B, v2 B
	// with edges (0,1),(0,2) leaves pair (1,2) = (B,B) unconnected; the data
	// graph has no B-B edges, so still only pattern-edge clusters load.
	p2 := graph.MustParse("t directed\nv 0 A\nv 1 B\nv 2 B\ne 0 1\ne 0 2\n")
	view2, err := s.ReadCSR(p2, graph.VertexInduced)
	if err != nil {
		t.Fatal(err)
	}
	if view2.NumClusters() != 1 {
		t.Fatalf("vertex-induced view loaded %d clusters, want 1", view2.NumClusters())
	}
	// Pattern with unconnected A,C pair must pull in the A->C cluster.
	p3 := graph.MustParse("t directed\nv 0 A\nv 1 B\nv 2 C\ne 0 1\ne 1 2\n")
	view3, err := s.ReadCSR(p3, graph.VertexInduced)
	if err != nil {
		t.Fatal(err)
	}
	names := g.Names
	if got := view3.PairClusters(names.Vertex("A"), names.Vertex("C")); len(got) == 0 {
		t.Fatal("negation clusters for (A,C) not loaded")
	}
}

func TestReadCSRDirectednessMismatch(t *testing.T) {
	s := Build(fig1Graph(t))
	p := graph.MustParse("t undirected\nv 0 A\nv 1 B\ne 0 1\n")
	if _, err := s.ReadCSR(p, graph.EdgeInduced); err == nil {
		t.Fatal("directedness mismatch must error")
	}
}

func TestViewAdjacent(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		directed := seed%2 == 0
		g := randomGraph(seed, 80, 300, 3, 2, directed)
		s := Build(g)
		// A complete pattern over all label pairs forces all clusters in.
		pb := graph.NewBuilder(directed)
		for l := 0; l < 3; l++ {
			pb.AddVertex(graph.Label(l))
			pb.AddVertex(graph.Label(l)) // two per label so same-label pairs load too
		}
		pv := pb.MustBuild() // no edges; vertex-induced loads all pair clusters
		view, err := s.ReadCSR(pv, graph.VertexInduced)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 500; i++ {
			v := graph.VertexID(rng.Intn(g.NumVertices()))
			w := graph.VertexID(rng.Intn(g.NumVertices()))
			if v == w {
				continue
			}
			if got, want := view.Adjacent(v, w), g.Adjacent(v, w); got != want {
				t.Fatalf("seed %d: Adjacent(%d,%d) = %v, graph says %v", seed, v, w, got, want)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		directed := seed%2 == 0
		g := randomGraph(seed, 100, 400, 4, 2, directed)
		s := Build(g)
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		s2, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if s2.NumVertices() != s.NumVertices() || s2.NumEdges() != s.NumEdges() ||
			s2.Directed() != s.Directed() || s2.NumClusters() != s.NumClusters() {
			t.Fatalf("decoded store header mismatch")
		}
		for _, k := range s.Keys() {
			if s.ClusterSize(k) != s2.ClusterSize(k) {
				t.Fatalf("cluster %v size changed after round trip", k)
			}
			a, b := s.read(k), s2.read(k)
			for _, side := range [][2]*CSR{{a.Out, b.Out}, {a.In, b.In}} {
				x, y := side[0], side[1]
				if (x == nil) != (y == nil) {
					t.Fatalf("cluster %v gained or lost a side", k)
				}
				if x != nil && !(slices.Equal(x.rows, y.rows) && slices.Equal(x.offs, y.offs) && slices.Equal(x.col, y.col)) {
					t.Fatalf("cluster %v arrays changed", k)
				}
			}
		}
		if s2.CompressedBytes() != s.CompressedBytes() {
			t.Fatal("compressed footprint changed after round trip")
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a ccsr file"))); err == nil {
		t.Fatal("garbage must not decode")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must not decode")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	k1 := NewKey(3, 1, 0, false)
	k2 := NewKey(1, 3, 0, false)
	if k1 != k2 {
		t.Fatal("undirected keys must canonicalize the label pair")
	}
	d1 := NewKey(3, 1, 0, true)
	d2 := NewKey(1, 3, 0, true)
	if d1 == d2 {
		t.Fatal("directed keys must preserve orientation")
	}
}

func TestPairClusterKeys(t *testing.T) {
	g := fig1Graph(t)
	s := Build(g)
	names := g.Names
	a, bl := names.Vertex("A"), names.Vertex("B")
	keys := s.PairClusterKeys(a, bl)
	if len(keys) != 1 {
		t.Fatalf("pair (A,B) has %d clusters, want 1", len(keys))
	}
	// D connects only to A in the example (v7->v1): both orientations of
	// the unordered pair must resolve to the same keys.
	d := names.Vertex("D")
	if len(s.PairClusterKeys(a, d)) != len(s.PairClusterKeys(d, a)) {
		t.Fatal("pair lookup must be orientation independent")
	}
}
