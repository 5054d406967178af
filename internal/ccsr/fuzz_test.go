package ccsr

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"csce/internal/graph"
)

// rawStore is a .ccsr image spelled out array by array, so a test can write
// exactly the file it means to — including files no Encode would produce.
type rawStore struct {
	directed  bool
	labels    []graph.Label
	numEdges  uint64
	clusters  []rawCluster
	truncated int // bytes cut off the end
}

type rawCluster struct {
	key      Key
	numEdges uint64
	sides    []rawSide // out, then in for a directed key
}

type rawSide struct{ vals, counts, col []uint32 }

func (r rawStore) encode() []byte {
	var buf bytes.Buffer
	put := func(xs ...any) { putLE(&buf, xs...) }
	put([]byte(codecMagic), uint32(codecVersion), r.directed,
		uint64(len(r.labels)), r.numEdges, r.labels, uint64(len(r.clusters)))
	for _, c := range r.clusters {
		put(c.key.Src, c.key.Dst, c.key.Edge, c.key.Directed, c.numEdges)
		for _, s := range c.sides {
			put(uint64(len(s.vals)), s.vals, s.counts, uint64(len(s.col)), s.col)
		}
	}
	put(false) // no label table
	return buf.Bytes()[:buf.Len()-r.truncated]
}

// rawPath is the undirected path 0-1-2 on four A-vertices, vertex 3
// isolated, as Encode writes it; edit lets a case spoil one thing.
func rawPath(edit func(*rawStore)) []byte {
	r := rawStore{
		labels:   []graph.Label{0, 0, 0, 0},
		numEdges: 2,
		clusters: []rawCluster{{
			key:      Key{},
			numEdges: 2,
			sides: []rawSide{{
				vals:   []uint32{0, 1, 3, 4},
				counts: []uint32{1, 1, 1, 2},
				col:    []uint32{1, 0, 2, 1},
			}},
		}},
	}
	if edit != nil {
		edit(&r)
	}
	return r.encode()
}

// rawArcs is the directed graph 0->1, 0->2, 3->2 on A-vertices.
func rawArcs(edit func(*rawStore)) []byte {
	r := rawStore{
		directed: true,
		labels:   []graph.Label{0, 0, 0, 0},
		numEdges: 3,
		clusters: []rawCluster{{
			key:      Key{Directed: true},
			numEdges: 3,
			sides: []rawSide{
				{vals: []uint32{0, 2, 3}, counts: []uint32{1, 3, 1}, col: []uint32{1, 2, 2}},
				{vals: []uint32{0, 1, 3}, counts: []uint32{2, 1, 2}, col: []uint32{0, 0, 3}},
			},
		}},
	}
	if edit != nil {
		edit(&r)
	}
	return r.encode()
}

// malformedStores are files Decode must refuse: each breaks one thing the
// lookups index by without checking, or one thing that makes the two stored
// orientations of an edge one edge.
var malformedStores = []struct {
	name string
	data []byte
}{
	{"truncated", rawPath(func(r *rawStore) { r.truncated = 9 })},
	{"first offset not zero", rawPath(func(r *rawStore) { r.clusters[0].sides[0].vals[0] = 1 })},
	{"last offset past the columns", rawPath(func(r *rawStore) { r.clusters[0].sides[0].vals[3] = 9 })},
	{"inner offset past the columns", rawPath(func(r *rawStore) { r.clusters[0].sides[0].vals[1] = 9 })},
	{"offsets not increasing", rawPath(func(r *rawStore) { r.clusters[0].sides[0].vals[2] = 1 })},
	{"empty row index", rawPath(func(r *rawStore) { r.clusters[0].sides[0] = rawSide{} })},
	{"zero run count", rawPath(func(r *rawStore) { r.clusters[0].sides[0].counts[1] = 0 })},
	{"row id past the vertices", rawPath(func(r *rawStore) { r.clusters[0].sides[0].counts[2] = 2 })},
	{"row id far past the vertices", rawPath(func(r *rawStore) { r.clusters[0].sides[0].counts[2] = 1 << 31 })},
	{"closing run past the vertices", rawPath(func(r *rawStore) { r.clusters[0].sides[0].counts[3] = 3 })},
	{"column id past the vertices", rawPath(func(r *rawStore) { r.clusters[0].sides[0].col[2] = 4 })},
	{"row not sorted", rawPath(func(r *rawStore) { r.clusters[0].sides[0].col[1], r.clusters[0].sides[0].col[2] = 2, 0 })},
	{"row with a duplicate", rawPath(func(r *rawStore) { r.clusters[0].sides[0].col[2] = 0 })},
	{"cluster edge count", rawPath(func(r *rawStore) { r.clusters[0].numEdges = 3 })},
	{"store edge count", rawPath(func(r *rawStore) { r.numEdges = 3 })},
	{"duplicate key", rawPath(func(r *rawStore) { r.clusters = append(r.clusters, r.clusters[0]); r.numEdges = 4 })},
	{"directed cluster in an undirected store", rawPath(func(r *rawStore) { r.clusters[0].key.Directed = true })},
	{"sides of different length", rawArcs(func(r *rawStore) {
		r.clusters[0].sides[1] = rawSide{vals: []uint32{0, 1}, counts: []uint32{2, 3}, col: []uint32{0}}
	})},
	{"canonical key order", rawPath(func(r *rawStore) { r.clusters[0].key.Src = 1 })},
	// Sides that are each well formed but do not describe one edge set; the
	// first is the file FuzzDecode found (EdgesAll visited 3 of 2 edges).
	{"undirected pair without its mirror", rawPath(func(r *rawStore) { r.clusters[0].sides[0].col = []uint32{1, 0, 3, 1} })},
	{"self-loops", rawPath(func(r *rawStore) {
		r.clusters[0].sides[0] = rawSide{vals: []uint32{0, 1, 2}, counts: []uint32{1, 1, 3}, col: []uint32{0, 1}}
		r.clusters[0].numEdges, r.numEdges = 1, 1
	})},
	{"incoming side not the transpose", rawArcs(func(r *rawStore) { r.clusters[0].sides[1].col = []uint32{0, 0, 1} })},
	{"vertex label outside the key", rawPath(func(r *rawStore) { r.labels[1] = 1 })},
	{"directed pair against the key", rawArcs(func(r *rawStore) { r.labels[0], r.labels[3], r.clusters[0].key.Dst = 1, 1, 1 })},
	// Length fields the input does not back with bytes: the vertex count
	// (offset 9) and the first row index (offset 56) of rawPath.
	{"vertex count without vertices", rawCut(25, 9, 1<<32)},
	{"row index length without a row index", rawCut(64, 56, 1<<31)},
}

// rawCut is rawPath cut to n bytes with the u64 at offset at overwritten.
func rawCut(n, at int, v uint64) []byte {
	data := rawPath(nil)[:n]
	binary.LittleEndian.PutUint64(data[at:], v)
	return data
}

// TestDecodeRejectsMalformedRowIndex: Decode used to take the row index on
// trust, so a file with an offset past its column array decoded fine and
// panicked at the first Row, and one with huge run counts made the read
// path allocate their sum. Each is now an error from Decode.
func TestDecodeRejectsMalformedRowIndex(t *testing.T) {
	for _, good := range [][]byte{rawPath(nil), rawArcs(nil)} {
		s, err := Decode(bytes.NewReader(good))
		if err != nil {
			t.Fatalf("the unspoiled image must decode: %v", err)
		}
		if !bytes.Equal(encoded(t, s), good) {
			t.Fatal("the unspoiled image must re-encode to itself")
		}
	}
	for _, tc := range malformedStores {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Decode(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %d vertices, %d clusters; want an error", tc.name, s.NumVertices(), s.NumClusters())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Decode allocated %d bytes for a %d-byte input", tc.name, grew, len(tc.data))
		}
	}
}

// TestDecodeShortClosingRun: a release that kept each cluster's closing run
// at its build-time length wrote, after AddVertex, files whose runs stop
// short of numVertices. They decode to the same cluster, and re-encode with
// the run written out in full.
func TestDecodeShortClosingRun(t *testing.T) {
	short := rawPath(func(r *rawStore) { r.clusters[0].sides[0].counts[3] = 1 })
	s, err := Decode(bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, s), rawPath(nil)) {
		t.Fatal("a short closing run must re-encode in full")
	}
}

// FuzzDecode throws arbitrary bytes at Decode. Whatever the input: an
// error or a store, never a panic; and a store that did decode is safe to
// use and is one Encode could have written — every row of every cluster
// can be read, every id up to NumVertices has a row exactly when the
// directory lists it (the jump index newCSR builds over a hostile
// directory misses nothing and invents nothing), EdgesAll visits exactly
// NumEdges edges, ReadCSR selects every cluster, and Encode, Decode,
// Encode is a fixed point. The seed corpus is one valid store per
// directedness and every malformed image of
// TestDecodeRejectsMalformedRowIndex.
func FuzzDecode(f *testing.F) {
	for _, directed := range []bool{false, true} {
		f.Add(encoded(f, Build(randomGraph(3, 12, 30, 2, 2, directed))))
	}
	f.Add(rawPath(nil))
	f.Add(rawArcs(nil))
	for _, tc := range malformedStores {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, k := range s.Keys() {
			cl := s.read(k)
			for _, side := range []*CSR{cl.Out, cl.In} {
				if side == nil {
					continue
				}
				for _, v := range side.NonEmptyRows() {
					row := side.Row(v)
					if len(row) == 0 || side.RowLen(v) != len(row) || !side.Has(v, row[0]) || int(row[len(row)-1]) >= s.NumVertices() {
						t.Fatalf("cluster %v row %d: %v", k, v, row)
					}
				}
				rows := side.NonEmptyRows()
				for v, i := graph.VertexID(0), 0; int(v) <= s.NumVertices(); v++ {
					listed := i < len(rows) && rows[i] == v
					if listed {
						i++
					}
					if found := len(side.Row(v)) > 0; found != listed {
						t.Fatalf("cluster %v: Row(%d) non-empty = %v, but listed in the directory = %v", k, v, found, listed)
					}
				}
			}
			pb := graph.NewBuilder(s.Directed())
			pb.AddVertex(k.Src)
			pb.AddVertex(k.Dst)
			pb.AddEdge(0, 1, k.Edge)
			for _, variant := range []graph.Variant{graph.EdgeInduced, graph.VertexInduced} {
				view, err := s.ReadCSR(pb.MustBuild(), variant)
				if err != nil || view.Cluster(k) != cl {
					t.Fatalf("ReadCSR(%v, %v): %v", k, variant, err)
				}
				if cl.NumEdges == 0 {
					continue
				}
				view.Adjacent(cl.Out.rows[0], cl.Out.col[0])
			}
		}
		edges := 0
		s.EdgesAll(func(src, dst graph.VertexID, _ graph.EdgeLabel) {
			edges++
			_ = s.VertexLabel(src) + s.VertexLabel(dst)
		})
		if edges != s.NumEdges() {
			t.Fatalf("EdgesAll visited %d of %d edges", edges, s.NumEdges())
		}
		once := encoded(t, s)
		again, err := Decode(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("Decode refused what Encode wrote: %v", err)
		}
		if !bytes.Equal(encoded(t, again), once) {
			t.Fatal("Encode, Decode, Encode is not a fixed point")
		}
	})
}
