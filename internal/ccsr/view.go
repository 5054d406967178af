package ccsr

import (
	"fmt"

	"csce/internal/graph"
)

// View is the result of ReadCSR (Algorithm 1): the subset G_C^* of clusters
// a specific (pattern, variant) task needs. It holds pointers to the
// store's own immutable clusters; building one copies and expands nothing.
type View struct {
	store    *Store
	version  uint64 // the store's Version when the view was read
	clusters map[Key]*Cluster
}

// ReadCSR implements Algorithm 1's selection: the clusters matching each
// pattern edge, and — for the vertex-induced variant
// — every (ux,uy)*-cluster between unconnected pattern vertex pairs, which
// the executor uses for negation.
func (s *Store) ReadCSR(p *graph.Graph, variant graph.Variant) (*View, error) {
	if p.Directed() != s.directed {
		return nil, fmt.Errorf("ccsr: pattern directedness (%v) does not match data graph (%v)",
			p.Directed(), s.directed)
	}
	v := &View{store: s, version: s.version, clusters: make(map[Key]*Cluster)}

	p.Edges(func(ux, uy graph.VertexID, el graph.EdgeLabel) {
		v.load(NewKey(p.Label(ux), p.Label(uy), el, s.directed))
	})

	if variant == graph.VertexInduced {
		// Negation needs the (ux,uy)*-clusters of every pattern vertex
		// pair: non-adjacent pairs must map to non-adjacent data vertices,
		// and adjacent pairs must not pick up extra data arcs (reverse
		// direction or different edge label) that the pattern lacks —
		// otherwise the induced subgraph would not be isomorphic to P.
		n := p.NumVertices()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ux, uy := graph.VertexID(i), graph.VertexID(j)
				for _, key := range s.PairClusterKeys(p.Label(ux), p.Label(uy)) {
					v.load(key)
				}
			}
		}
	}
	return v, nil
}

// load selects cluster k into the view if the store has it. A missing
// cluster is not an error: it simply means no data edge matches, which the
// executor turns into an empty result.
func (v *View) load(k Key) {
	if _, done := v.clusters[k]; done {
		return
	}
	if c := v.store.read(k); c != nil {
		v.clusters[k] = c
	}
}

// NumVertices returns the data graph vertex count.
func (v *View) NumVertices() int { return v.store.numVertices }

// Store returns the backing store.
func (v *View) Store() *Store { return v.store }

// Version returns the store's Version when the view was read. A view does
// not see a write made to its store after it was read.
func (v *View) Version() uint64 { return v.version }

// Cluster returns the cluster for key k, or nil when no data
// edge belongs to that isomorphism class (or the cluster was not selected
// by ReadCSR).
func (v *View) Cluster(k Key) *Cluster { return v.clusters[k] }

// EdgeCluster returns the cluster matching a pattern edge between vertex
// labels src and dst with edge label el.
func (v *View) EdgeCluster(src, dst graph.Label, el graph.EdgeLabel) *Cluster {
	return v.clusters[NewKey(src, dst, el, v.store.directed)]
}

// PairClusters returns all loaded clusters holding edges between vertex
// labels a and b regardless of edge label or direction — the
// (ux,uy)*-clusters used for vertex-induced negation.
func (v *View) PairClusters(a, b graph.Label) []*Cluster {
	keys := v.store.PairClusterKeys(a, b)
	out := make([]*Cluster, 0, len(keys))
	for _, k := range keys {
		if c := v.clusters[k]; c != nil {
			out = append(out, c)
		}
	}
	return out
}

// NumClusters returns how many clusters the view selected.
func (v *View) NumClusters() int { return len(v.clusters) }

// DecompressedBytes returns the total footprint of the clusters the view
// references. The name dates from when ReadCSR expanded a private copy of
// each; nothing is expanded or copied any more, so this is the size of the
// shared arrays a query may touch, not memory the query allocated.
func (v *View) DecompressedBytes() int {
	total := 0
	for _, c := range v.clusters {
		total += c.Bytes()
	}
	return total
}

// VertexLabel returns the label of data vertex x.
func (v *View) VertexLabel(x graph.VertexID) graph.Label { return v.store.vertexLabels[x] }

// Adjacent reports whether data vertices x and y are connected by any edge
// in any loaded cluster between their labels, in either direction. It is
// the negation test of vertex-induced matching; ReadCSR guarantees the
// relevant clusters are loaded for that variant.
func (v *View) Adjacent(x, y graph.VertexID) bool {
	for _, c := range v.PairClusters(v.VertexLabel(x), v.VertexLabel(y)) {
		if c.Key.Directed {
			if c.Out.Has(x, y) || c.Out.Has(y, x) {
				return true
			}
		} else if c.Out.Has(x, y) {
			return true
		}
	}
	return false
}
