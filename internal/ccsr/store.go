package ccsr

import (
	"cmp"
	"slices"
	"sort"

	"csce/internal/graph"
)

// Store is the offline product of clustering a data graph: the complete set
// G_C of clusters, plus the vertex labels and label statistics
// needed at plan time. A Store fully replaces the original graph for
// matching purposes — per the paper, "as G_C is equivalent to G, we do not
// keep G".
type Store struct {
	directed     bool
	numVertices  int
	vertexLabels []graph.Label
	labelFreq    map[graph.Label]int
	clusters     []*Compressed     // G_C, in creation order
	clusterAt    map[Key]int       // cluster key -> position in clusters
	pairIndex    map[pairKey][]Key // unordered label pair -> clusters, for (ux,uy)*-lookups
	numEdges     int
	names        *graph.LabelTable // symbolic label names of the originating graph (may be nil)

	// clusterBytes is the sum of Compressed.Bytes over all clusters, kept
	// current by every path that creates, edits or compacts a cluster.
	clusterBytes int

	// own records what this store may write in place; everything else is
	// shared with its clones and copied on first write (see clone.go). nil
	// means the store owns nothing, which is the state Build, Decode and
	// Clone leave it in.
	own *ownership
}

// Build clusters every edge of g into its isomorphism class and builds
// each cluster. Time is O(|E| log |E|) from the per-cluster sorts, matching
// the paper's analysis.
func Build(g *graph.Graph) *Store {
	s := &Store{
		directed:     g.Directed(),
		numVertices:  g.NumVertices(),
		vertexLabels: append([]graph.Label(nil), g.Labels()...),
		labelFreq:    make(map[graph.Label]int),
		clusterAt:    make(map[Key]int),
		pairIndex:    make(map[pairKey][]Key),
		numEdges:     g.NumEdges(),
		names:        g.Names,
	}
	for _, l := range s.vertexLabels {
		s.labelFreq[l]++
	}

	byKey := make(map[Key][]pair)
	g.Edges(func(v, w graph.VertexID, el graph.EdgeLabel) {
		key := NewKey(g.Label(v), g.Label(w), el, g.Directed())
		if g.Directed() {
			byKey[key] = append(byKey[key], pair{v, w})
			return
		}
		// Undirected: store both orientations in the single CSR. The
		// canonical key may have swapped the label pair; orientation of the
		// stored pairs is per-vertex, so no swap is needed here.
		byKey[key] = append(byKey[key], pair{v, w}, pair{w, v})
	})

	for key, pairs := range byKey {
		s.appendCluster(buildCluster(key, pairs))
	}
	for _, keys := range s.pairIndex {
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	}
	return s
}

// appendCluster adds a cluster while Build or Decode assembles a store
// nothing else references yet; its pair-index slice is sorted afterwards.
func (s *Store) appendCluster(c *Compressed) {
	s.clusterAt[c.Key] = len(s.clusters)
	s.clusters = append(s.clusters, c)
	s.clusterBytes += c.Bytes()
	pk := newPairKey(c.Key.Src, c.Key.Dst)
	s.pairIndex[pk] = append(s.pairIndex[pk], c.Key)
}

// cluster returns the compressed cluster for k, or nil if there is none.
func (s *Store) cluster(k Key) *Compressed {
	if i, ok := s.clusterAt[k]; ok {
		return s.clusters[i]
	}
	return nil
}

// pair is one stored edge orientation.
type pair struct{ a, b graph.VertexID }

// comparePairs orders pairs row-major: by a, then b.
func comparePairs(x, y pair) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

func sortPairs(pairs []pair) { slices.SortFunc(pairs, comparePairs) }

// buildCluster builds a cluster from its pair list; Build, compaction and
// the creation of an empty cluster all come through here, so there is one
// definition of the base arrays. For an undirected key the list must
// already contain both orientations. pairs is consumed: sorted and, for a
// directed key, flipped in place.
func buildCluster(key Key, pairs []pair) *Compressed {
	cl := &Cluster{Key: key, NumEdges: len(pairs)}
	if !key.Directed {
		cl.NumEdges /= 2
	}
	// Outgoing side: rows keyed by the first element of each pair.
	sortPairs(pairs)
	cl.Out = emitRows(pairs)
	if key.Directed {
		// Incoming side: rows keyed by destination.
		for i, p := range pairs {
			pairs[i] = pair{p.b, p.a}
		}
		sortPairs(pairs)
		cl.In = emitRows(pairs)
	}
	return &Compressed{Key: key, NumEdges: cl.NumEdges, base: cl}
}

// emitRows writes one CSR side from pairs sorted row-major: the column
// array and the directory of non-empty rows, one entry per distinct first
// element, with room after the offsets for newCSR's jump index. Nothing is
// sized by the vertex count, so the cost is O(len(pairs)).
func emitRows(pairs []pair) *CSR {
	col := make([]graph.VertexID, len(pairs))
	n := 0
	for i, p := range pairs {
		col[i] = p.b
		if i == 0 || p.a != pairs[i-1].a {
			n++
		}
	}
	starts := 0
	if n > 0 {
		_, starts = jumpShape(n, pairs[0].a, pairs[len(pairs)-1].a)
	}
	rows := make([]graph.VertexID, 0, n)
	offs := make([]uint32, 0, n+1+starts)
	for i, p := range pairs {
		if i > 0 && p.a == pairs[i-1].a {
			continue
		}
		rows = append(rows, p.a)
		offs = append(offs, uint32(i))
	}
	offs = append(offs, uint32(len(pairs)))
	return newCSR(rows, offs, col)
}

func keyLess(a, b Key) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Edge != b.Edge {
		return a.Edge < b.Edge
	}
	return !a.Directed && b.Directed
}

// Directed reports whether the clustered graph is directed.
func (s *Store) Directed() bool { return s.directed }

// Names returns the label table of the originating graph, or nil when the
// graph was built programmatically without one. The table round-trips
// through Encode/Decode so patterns parsed against a reloaded index intern
// labels identically to the original graph.
func (s *Store) Names() *graph.LabelTable { return s.names }

// NumVertices returns the clustered graph's vertex count.
func (s *Store) NumVertices() int { return s.numVertices }

// NumEdges returns the clustered graph's edge count (undirected edges
// counted once).
func (s *Store) NumEdges() int { return s.numEdges }

// NumClusters returns |G_C|.
func (s *Store) NumClusters() int { return len(s.clusters) }

// VertexLabel returns the label of data vertex v.
func (s *Store) VertexLabel(v graph.VertexID) graph.Label { return s.vertexLabels[v] }

// LabelFrequency returns the number of data vertices with label l.
func (s *Store) LabelFrequency(l graph.Label) int { return s.labelFreq[l] }

// ClusterSize returns the number of edges in the identified cluster, or 0
// if the cluster does not exist. This is the |I_C| statistic the GCF and
// LDSF tie-breaking rules consume.
func (s *Store) ClusterSize(k Key) int {
	if c := s.cluster(k); c != nil {
		return c.NumEdges
	}
	return 0
}

// EdgeClusterSize returns the size of the cluster matching an edge between
// vertex labels src and dst with the given edge label, honoring the store's
// directedness.
func (s *Store) EdgeClusterSize(src, dst graph.Label, el graph.EdgeLabel) int {
	return s.ClusterSize(NewKey(src, dst, el, s.directed))
}

// PairClusterKeys returns the identifiers of all clusters holding edges
// between vertex labels a and b, in either direction and with any edge
// label — the paper's (ux,uy)*-clusters.
func (s *Store) PairClusterKeys(a, b graph.Label) []Key {
	return s.pairIndex[newPairKey(a, b)]
}

// CompressedBytes returns the total at-rest footprint of the vertex labels
// and all clusters. It reads a running total, so it is O(1).
func (s *Store) CompressedBytes() int {
	return 2*len(s.vertexLabels) + s.clusterBytes // labels are uint16
}

// Keys returns all cluster identifiers in deterministic order.
func (s *Store) Keys() []Key {
	keys := make([]Key, 0, len(s.clusters))
	for _, c := range s.clusters {
		keys = append(keys, c.Key)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// read returns the matchable form of cluster k, or nil if there is none:
// the base the cluster already holds, after merging any pending update
// overlay into it. Only a store's private clusters are ever dirty, so on a
// published snapshot this writes nothing.
func (s *Store) read(k Key) *Cluster {
	c := s.cluster(k)
	if c == nil {
		return nil
	}
	if c.dirty() {
		s.compact(c)
	}
	return c.base
}
