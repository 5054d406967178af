package ccsr

import (
	"fmt"

	"csce/internal/graph"
)

// Incremental maintenance of the clustered index. The paper positions CCSR
// against graph-database storage (Kùzu's CSR adjacency indices, Section
// II), where updates are a core requirement; this file adds them without
// giving up the compact at-rest layout: each cluster keeps small delta
// overlays (inserted and deleted edge pairs), and a cluster is compacted —
// its base rebuilt with the overlays merged in — once the overlay grows
// past a fraction of its size, or when a reader asks for it.
//
// An edge belongs to exactly one cluster, and an update costs that cluster
// at most — never the graph. The existence probe is one Row lookup in the
// cluster's row directory (a jump-index probe and a search of one bucket,
// allocation-free); compaction walks the directory, merges the sorted
// overlays and re-emits it with a fresh jump index, O(cluster +
// overlay·log overlay), plus one sort of the incoming side for a directed
// cluster. No step allocates or touches anything sized by the vertex
// count. Writes go to private copies under the copy-on-write rules of
// clone.go, so the same bound holds for what a commit copies.
//
// Update semantics match Build exactly: a mutated store is always
// equivalent to Build applied to the mutated graph (asserted by the
// property tests in update_test.go).

// deltaCompactionFraction triggers compaction once the overlay exceeds
// this fraction of the base size (or deltaCompactionMin, whichever is
// larger).
const (
	deltaCompactionFraction = 8 // base/8
	deltaCompactionMin      = 64
)

// AddVertex appends a vertex with label l to the clustered graph and
// returns its ID. The new vertex has no edges; no cluster changes, because
// a row directory lists non-empty rows only.
func (s *Store) AddVertex(l graph.Label) graph.VertexID {
	s.ownLabels()
	s.vertexLabels = append(s.vertexLabels, l)
	s.labelFreq[l]++
	s.numVertices++
	return graph.VertexID(s.numVertices - 1)
}

// InsertEdge adds an edge between existing vertices. For an undirected
// store the edge is symmetric. Inserting an edge that already exists (same
// endpoints, direction, and label) is an error, as is a self-loop.
func (s *Store) InsertEdge(src, dst graph.VertexID, el graph.EdgeLabel) error {
	if err := s.checkEndpoints(src, dst); err != nil {
		return err
	}
	if s.hasEdge(src, dst, el) {
		return fmt.Errorf("ccsr: edge (%d,%d,e%d) already present", src, dst, el)
	}
	key := NewKey(s.vertexLabels[src], s.vertexLabels[dst], el, s.directed)
	c := s.writableCluster(key)
	if c == nil {
		c = buildCluster(key, nil)
		s.createCluster(c)
	}
	before := c.Bytes()
	// Re-inserting a base edge that carries a tombstone cancels the
	// tombstone instead of stacking an insert on top of it, keeping every
	// pair in at most one overlay.
	if removePair(&c.delPairs, pair{src, dst}) {
		if !s.directed {
			removePair(&c.delPairs, pair{dst, src})
		}
	} else {
		c.addPairs = append(c.addPairs, pair{src, dst})
		if !s.directed {
			c.addPairs = append(c.addPairs, pair{dst, src})
		}
	}
	c.NumEdges++
	s.numEdges++
	s.clusterBytes += c.Bytes() - before
	s.maybeCompact(c)
	return nil
}

// DeleteEdge removes an existing edge (same endpoints, direction, label).
func (s *Store) DeleteEdge(src, dst graph.VertexID, el graph.EdgeLabel) error {
	if err := s.checkEndpoints(src, dst); err != nil {
		return err
	}
	if !s.hasEdge(src, dst, el) {
		return fmt.Errorf("ccsr: edge (%d,%d,e%d) not present", src, dst, el)
	}
	c := s.writableCluster(NewKey(s.vertexLabels[src], s.vertexLabels[dst], el, s.directed))
	before := c.Bytes()
	// If the edge is still in the insert overlay, cancel it there;
	// otherwise record a tombstone.
	if removePair(&c.addPairs, pair{src, dst}) {
		if !s.directed {
			removePair(&c.addPairs, pair{dst, src})
		}
	} else {
		c.delPairs = append(c.delPairs, pair{src, dst})
		if !s.directed {
			c.delPairs = append(c.delPairs, pair{dst, src})
		}
	}
	c.NumEdges--
	s.numEdges--
	s.clusterBytes += c.Bytes() - before
	s.maybeCompact(c)
	return nil
}

// hasEdge reports whether the store currently holds the edge, consulting
// the overlays and then the base row.
//
//csce:hotpath runs on every InsertEdge and DeleteEdge
func (s *Store) hasEdge(src, dst graph.VertexID, el graph.EdgeLabel) bool {
	key := NewKey(s.vertexLabels[src], s.vertexLabels[dst], el, s.directed)
	c := s.cluster(key)
	if c == nil {
		return false
	}
	p := pair{src, dst}
	for _, d := range c.delPairs {
		if d == p {
			return false
		}
	}
	for _, a := range c.addPairs {
		if a == p {
			return true
		}
	}
	return c.base.Out.Has(src, dst)
}

func (s *Store) checkEndpoints(src, dst graph.VertexID) error {
	if int(src) >= s.numVertices || int(dst) >= s.numVertices {
		return fmt.Errorf("ccsr: vertex out of range (have %d vertices)", s.numVertices)
	}
	if src == dst {
		return fmt.Errorf("ccsr: self-loop on vertex %d is not allowed", src)
	}
	return nil
}

// maybeCompact rebuilds the base arrays when the overlay is large.
func (s *Store) maybeCompact(c *Compressed) {
	overlay := len(c.addPairs) + len(c.delPairs)
	threshold := c.base.Out.Len()/deltaCompactionFraction + deltaCompactionMin
	if overlay < threshold {
		return
	}
	s.compact(c)
}

// compact merges the overlays of c into a fresh base, leaving the old one
// to whoever still reads it. c must be a cluster this store owns, which
// every dirty cluster is.
func (s *Store) compact(c *Compressed) {
	before := c.Bytes()
	*c = *buildCluster(c.Key, c.mergedPairs())
	s.clusterBytes += c.Bytes() - before
}

// mergedPairs materializes the cluster's current pair list, row-major: a
// walk over the base's row directory that drops tombstoned pairs and
// merges in the insert overlay. Both
// overlays are sorted in place for the merge; every tombstone names a base
// pair and no inserted pair is one.
func (c *Compressed) mergedPairs() []pair {
	sortPairs(c.addPairs)
	sortPairs(c.delPairs)
	add, del := c.addPairs, c.delPairs
	out := c.base.Out
	pairs := make([]pair, 0, len(out.col)+len(add)-len(del))
	for i, row := range out.rows {
		for _, w := range out.rowAt(i) {
			p := pair{row, w}
			for len(add) > 0 && comparePairs(add[0], p) < 0 {
				pairs = append(pairs, add[0])
				add = add[1:]
			}
			if len(del) > 0 && del[0] == p {
				del = del[1:]
				continue
			}
			pairs = append(pairs, p)
		}
	}
	return append(pairs, add...)
}

func removePair(ps *[]pair, p pair) bool {
	for i, x := range *ps {
		if x == p {
			(*ps)[i] = (*ps)[len(*ps)-1]
			*ps = (*ps)[:len(*ps)-1]
			return true
		}
	}
	return false
}
