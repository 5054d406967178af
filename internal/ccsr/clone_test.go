package ccsr

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"csce/internal/graph"
)

// TestCloneIsIndependent mutates original and clone divergently and checks
// neither sees the other's edits.
func TestCloneIsIndependent(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 A\nv 2 B\ne 0 1\ne 1 2\n")
	s := Build(g)
	if err := s.DeleteEdge(0, 1, 0); err != nil { // leave a pending overlay
		t.Fatal(err)
	}
	c := s.Clone()
	// Clone compacts the source: no cluster on either side stays dirty.
	for _, cl := range s.clusters {
		k := cl.Key
		if cl.dirty() {
			t.Fatalf("source cluster %v dirty after Clone", k)
		}
	}
	if !storesEquivalent(t, s, c) {
		t.Fatal("fresh clone differs from source")
	}

	// Diverge: re-add 0-1 on the original only, and grow the clone only.
	if err := s.InsertEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	v := c.AddVertex(1) // another B
	if err := c.InsertEdge(1, v, 0); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 2 || c.NumEdges() != 2 {
		t.Fatalf("edge counts diverged wrongly: %d vs %d", s.NumEdges(), c.NumEdges())
	}
	if s.NumVertices() != 3 || c.NumVertices() != 4 {
		t.Fatalf("vertex counts: %d vs %d, want 3 and 4", s.NumVertices(), c.NumVertices())
	}
	// Each equals a scratch rebuild of its own graph.
	sb := graph.NewBuilder(false)
	sb.AddVertex(0)
	sb.AddVertex(0)
	sb.AddVertex(1)
	sb.AddEdge(0, 1, 0)
	sb.AddEdge(1, 2, 0)
	if !storesEquivalent(t, s, Build(sb.MustBuild())) {
		t.Fatal("original corrupted by clone mutation")
	}
	cb := graph.NewBuilder(false)
	cb.AddVertex(0)
	cb.AddVertex(0)
	cb.AddVertex(1)
	cb.AddVertex(1)
	cb.AddEdge(1, 2, 0)
	cb.AddEdge(1, 3, 0)
	if !storesEquivalent(t, c, Build(cb.MustBuild())) {
		t.Fatal("clone corrupted by original mutation")
	}
}

// TestCloneSharingContract pins what Clone shares and what a write copies:
// a fresh clone aliases the label array, the label table and every
// compressed cluster of its source; the first write on one side makes a
// private copy of exactly the part written and never reaches the other
// side; and no cluster both sides can see is ever dirty.
func TestCloneSharingContract(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 B\nv 2 B\ne 0 1 knows\ne 1 2 knows\n")
	s := Build(g)
	c := s.Clone()
	knows := g.Names.Edge("knows")
	ab, bb := NewKey(0, 1, knows, false), NewKey(1, 1, knows, false)

	if c.Names() != s.Names() {
		t.Fatal("label table must be shared across clones")
	}
	if &c.vertexLabels[0] != &s.vertexLabels[0] {
		t.Fatal("a fresh clone must share the vertex label array")
	}
	if c.cluster(ab) != s.cluster(ab) || c.cluster(bb) != s.cluster(bb) {
		t.Fatal("a fresh clone must share every compressed cluster")
	}
	if s.own != nil || c.own != nil {
		t.Fatal("neither side of a Clone may own anything")
	}
	shared := s.cluster(ab)

	// An edge write copies the one cluster it touches, on the writing side.
	if err := c.DeleteEdge(0, 1, knows); err != nil {
		t.Fatal(err)
	}
	if c.cluster(ab) == shared || !c.cluster(ab).dirty() {
		t.Fatal("the writing side must edit a private copy of the touched cluster")
	}
	if s.cluster(ab) != shared || shared.dirty() || shared.NumEdges != 1 {
		t.Fatal("the write reached the cluster the other side reads")
	}
	if c.cluster(bb) != s.cluster(bb) {
		t.Fatal("an untouched cluster must stay shared")
	}
	if s.NumEdges() != 2 || c.NumEdges() != 1 {
		t.Fatalf("edge counts %d/%d, want 2/1", s.NumEdges(), c.NumEdges())
	}

	// A vertex write copies the label array and histogram, same rule.
	v := s.AddVertex(1)
	if &c.vertexLabels[0] == &s.vertexLabels[0] {
		t.Fatal("AddVertex must move the writing side onto a private label array")
	}
	if c.NumVertices() != 3 || len(c.vertexLabels) != 3 || c.LabelFrequency(1) != 2 {
		t.Fatal("AddVertex reached the other side")
	}
	if s.VertexLabel(v) != 1 || s.LabelFrequency(1) != 3 {
		t.Fatal("AddVertex lost on the writing side")
	}

	// Cloning the dirty side seals it: compacted, nothing owned, and what
	// its clone sees is clean.
	cc := c.Clone()
	if c.own != nil || c.cluster(ab).dirty() || cc.cluster(ab) != c.cluster(ab) {
		t.Fatal("Clone must compact and release the receiver's private clusters before sharing them")
	}
	for _, st := range []*Store{s, c, cc} {
		for i, cl := range st.clusters {
			mine := false
			if st.own != nil {
				_, mine = st.own.clusters[i]
			}
			if !mine && cl.dirty() {
				t.Fatalf("shared cluster %v is dirty", cl.Key)
			}
		}
	}
}

// TestNewClusterLeavesSnapshotPairIndexAlone is the regression test for the
// in-place key insert: the pair index is shared with published snapshots,
// so creating a cluster on the writer must replace the key slice it
// extends, not shift the one a snapshot is reading (run under -race).
func TestNewClusterLeavesSnapshotPairIndexAlone(t *testing.T) {
	// Edge labels b and c exist between the two A vertices; a, which sorts
	// before both, does not — inserting it shifts every existing key.
	g := graph.MustParse("t undirected\nv 0 A\nv 1 A\nv 2 A\ne 0 1 b\ne 1 2 c\n")
	a := g.Names.Edge("a")
	writer := Build(g)
	snapshot := writer.Clone()
	want := append([]Key(nil), snapshot.PairClusterKeys(0, 0)...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := snapshot.PairClusterKeys(0, 0)
			if len(got) != len(want) {
				t.Errorf("snapshot sees %d keys, want %d", len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("snapshot key %d = %v, want %v", i, got[i], want[i])
					return
				}
			}
		}
	}()
	if err := writer.InsertEdge(0, 2, a); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got := writer.PairClusterKeys(0, 0); len(got) != len(want)+1 {
		t.Fatalf("writer indexes %d keys, want %d", len(got), len(want)+1)
	}
}

// TestPropertyClonesStayIndependent interleaves random InsertEdge,
// DeleteEdge, AddVertex and Clone across a growing family of stores cloned
// from one another, keeps writing both sides of every clone, and checks
// each store against Build of the graph its own edits describe. Every
// Clone also leaves a sealed store that two goroutines read, and clone,
// while the writers carry on — under -race that is the proof that nothing
// reachable from a store that owns nothing is ever written.
func TestPropertyClonesStayIndependent(t *testing.T) {
	type tracked struct {
		store  *Store
		es     edgeSet
		labels []graph.Label
	}
	fork := func(tr *tracked) *tracked {
		es := make(edgeSet, len(tr.es))
		for e := range tr.es {
			es[e] = true
		}
		return &tracked{store: tr.store.Clone(), es: es, labels: append([]graph.Label(nil), tr.labels...)}
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g := randomGraph(seed, 40, 120, 3, 2, directed)
		live := []*tracked{{store: Build(g), es: edgeSetOf(g), labels: append([]graph.Label(nil), g.Labels()...)}}

		var readers sync.WaitGroup
		done := make(chan struct{})
		for step := 0; step < 3000; step++ {
			tr := live[rng.Intn(len(live))]
			switch op := rng.Intn(100); {
			case op < 3: // clone: keep writing both sides, and read a third
				child := fork(tr)
				if len(live) < 6 {
					live = append(live, child)
				} else {
					live[rng.Intn(len(live))] = child
				}
				sealed := fork(tr)
				want := Build(sealed.es.toGraph(sealed.labels, directed))
				for r := 0; r < 2; r++ {
					readers.Add(1)
					go func() {
						defer readers.Done()
						for {
							if !storesEquivalent(t, sealed.store, want) {
								t.Error("a sealed store changed under its readers")
								return
							}
							// Cloning a sealed store, and writing the clone,
							// must leave it alone too.
							c := sealed.store.Clone()
							x, y := c.AddVertex(0), c.AddVertex(0)
							if err := c.InsertEdge(x, y, 0); err != nil {
								t.Error(err)
								return
							}
							select {
							case <-done:
								return
							default:
							}
						}
					}()
				}
			case op < 6:
				l := graph.Label(rng.Intn(3))
				tr.store.AddVertex(l)
				tr.labels = append(tr.labels, l)
			default:
				src := graph.VertexID(rng.Intn(len(tr.labels)))
				dst := graph.VertexID(rng.Intn(len(tr.labels)))
				el := graph.EdgeLabel(rng.Intn(2))
				if src == dst {
					continue
				}
				if tr.es.has(directed, src, dst, el) {
					if err := tr.store.DeleteEdge(src, dst, el); err != nil {
						t.Fatal(err)
					}
					delete(tr.es, [3]uint32{src, dst, uint32(el)})
					if !directed {
						delete(tr.es, [3]uint32{dst, src, uint32(el)})
					}
				} else {
					if err := tr.store.InsertEdge(src, dst, el); err != nil {
						t.Fatal(err)
					}
					tr.es[[3]uint32{src, dst, uint32(el)}] = true
				}
			}
		}
		close(done)
		readers.Wait()
		for i, tr := range live {
			if !storesEquivalent(t, tr.store, Build(tr.es.toGraph(tr.labels, directed))) {
				t.Fatalf("seed %d: store %d differs from Build of its own graph", seed, i)
			}
		}
	}
}

// TestCloneConcurrentReadersWhileWriterMutates is the snapshot-swap usage
// pattern under the race detector: readers hammer a published clone while
// the private original keeps mutating.
func TestCloneConcurrentReadersWhileWriterMutates(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddVertices(64, 0)
	for i := 1; i < 64; i++ {
		b.AddEdge(0, graph.VertexID(i), 0)
	}
	writer := Build(b.MustBuild())
	published := writer.Clone()

	p := graph.MustParse("t undirected\nv 0 0\nv 1 0\ne 0 1\n")
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				view, err := published.ReadCSR(p, graph.EdgeInduced)
				if err != nil {
					t.Error(err)
					return
				}
				if got := view.EdgeCluster(0, 0, 0).NumEdges; got != 63 {
					t.Errorf("published snapshot saw %d edges, want 63", got)
					return
				}
			}
		}()
	}
	for i := 1; i < 64; i++ {
		if err := writer.DeleteEdge(0, graph.VertexID(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestCompactionExactlyAtThreshold pins the boundary arithmetic of
// maybeCompact: overlay < base columns/deltaCompactionFraction +
// deltaCompactionMin stays lazy; reaching it compacts. A directed store
// keeps overlay entries 1:1 with edits, so the boundary is exact.
func TestCompactionExactlyAtThreshold(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddVertices(2*deltaCompactionMin+4, 0)
	s := Build(b.MustBuild())
	key := NewKey(0, 0, 0, true)

	// Empty base: threshold = 0/8 + deltaCompactionMin.
	for i := 0; i < deltaCompactionMin-1; i++ {
		if err := s.InsertEdge(0, graph.VertexID(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	c := s.cluster(key)
	if !c.dirty() || len(c.addPairs) != deltaCompactionMin-1 {
		t.Fatalf("one below threshold must stay lazy: dirty=%v adds=%d", c.dirty(), len(c.addPairs))
	}
	if err := s.InsertEdge(0, graph.VertexID(deltaCompactionMin), 0); err != nil {
		t.Fatal(err)
	}
	if c.dirty() {
		t.Fatalf("overlay of %d on empty base must compact", deltaCompactionMin)
	}
	if c.base.Out.Len() != deltaCompactionMin || c.NumEdges != deltaCompactionMin {
		t.Fatalf("compacted base has %d cols / %d edges, want %d", c.base.Out.Len(), c.NumEdges, deltaCompactionMin)
	}

	// Non-empty base: threshold = base/deltaCompactionFraction + min. The
	// base now holds deltaCompactionMin edges, so the fraction term adds
	// deltaCompactionMin/deltaCompactionFraction to the budget.
	extra := deltaCompactionMin/deltaCompactionFraction + deltaCompactionMin
	for i := 0; i < extra-1; i++ {
		if err := s.InsertEdge(1, graph.VertexID(i+2), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !c.dirty() || len(c.addPairs) != extra-1 {
		t.Fatalf("one below fraction threshold must stay lazy: dirty=%v adds=%d, want %d",
			c.dirty(), len(c.addPairs), extra-1)
	}
	if err := s.InsertEdge(1, graph.VertexID(extra+1), 0); err != nil {
		t.Fatal(err)
	}
	if c.dirty() {
		t.Fatalf("overlay of %d on base %d must compact", extra, deltaCompactionMin)
	}
}

// TestCodecRoundTripWithPendingDeleteOverlay pins the Encode-compacts-first
// equivalence for tombstones: a store with a pending DeleteEdge overlay
// encodes to the same bytes as its explicitly compacted twin, and the
// decoded store matches a scratch rebuild of the post-delete graph.
func TestCodecRoundTripWithPendingDeleteOverlay(t *testing.T) {
	build := func() *Store {
		g := graph.MustParse("t undirected\nv 0 A\nv 1 A\nv 2 A\nv 3 B\ne 0 1\ne 1 2\ne 0 2\ne 2 3\n")
		s := Build(g)
		if err := s.DeleteEdge(1, 2, 0); err != nil {
			t.Fatal(err)
		}
		return s
	}

	dirty := build()
	key := NewKey(0, 0, 0, false)
	if !dirty.cluster(key).dirty() {
		t.Fatal("precondition: delete must leave a pending overlay")
	}
	var dirtyBuf bytes.Buffer
	if err := dirty.Encode(&dirtyBuf); err != nil {
		t.Fatal(err)
	}
	if dirty.cluster(key).dirty() {
		t.Fatal("Encode must compact pending overlays in place")
	}

	compacted := build()
	compacted.compact(compacted.cluster(key))
	var compactBuf bytes.Buffer
	if err := compacted.Encode(&compactBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dirtyBuf.Bytes(), compactBuf.Bytes()) {
		t.Fatal("encoding with a pending overlay must equal encoding after explicit compaction")
	}

	decoded, err := Decode(&dirtyBuf)
	if err != nil {
		t.Fatal(err)
	}
	rb := graph.NewBuilder(false)
	rb.AddVertex(0)
	rb.AddVertex(0)
	rb.AddVertex(0)
	rb.AddVertex(1)
	rb.AddEdge(0, 1, 0)
	rb.AddEdge(0, 2, 0)
	rb.AddEdge(2, 3, 0)
	if !storesEquivalent(t, decoded, Build(rb.MustBuild())) {
		t.Fatal("decoded store differs from rebuild of the post-delete graph")
	}
}
