package ccsr

import (
	"maps"
	"slices"
	"sort"

	"csce/internal/graph"
)

// ownership lists the parts of a store it alone references and may
// therefore write in place. Anything not listed is shared with clones.
type ownership struct {
	// labels covers vertexLabels and labelFreq, which AddVertex writes
	// together.
	labels bool
	// keys covers the clusterAt and pairIndex maps, both written only when
	// a cluster is created. The key slices in pairIndex stay shared and are
	// replaced, never edited.
	keys bool
	// clusters is the set of positions in the clusters slice where this
	// store holds a private copy. Non-nil also means the slice itself is
	// private.
	clusters map[int]struct{}
}

// Clone returns a store with the receiver's contents, for snapshot-based
// mutation: the live-ingest subsystem publishes one side to readers and
// keeps writing the other. It copies nothing but the Store header, so it
// costs the same on any graph; the copying happens later, on the side that
// writes, and covers only what that write touches.
//
// Sharing rules. After Clone, receiver and result share the vertex labels,
// the label histogram, the cluster slice, every *Compressed in it and both
// key indexes, and neither owns any of it. A store copies a part the first
// time it writes it after a Clone: InsertEdge/DeleteEdge copy the cluster
// slice (one pointer per cluster) and the one cluster struct they touch,
// creating a cluster also copies the two key indexes and the one key slice
// it extends, AddVertex copies the label array and histogram. A write on
// either side therefore never reaches the other, and both sides stay
// writable. The label table is shared outright: it is append-only and
// callers already serialize interning.
//
// Seal. Before sharing, Clone compacts the receiver's dirty clusters and
// drops its ownership, which keeps the invariant everything above rests
// on: a shared cluster is never dirty. Overlays are only ever appended to
// a private copy, compaction (the one in-place rewrite of a cluster, which
// reading a dirty cluster triggers) only ever runs on a dirty cluster, and
// the base is replaced wholesale by buildCluster, never edited — so
// whatever is reachable from a store that owns nothing is immutable, and
// ReadCSR hands those very clusters to queries. Such a store (a published
// snapshot: a fresh Clone result that nobody wrote) can be read and cloned
// from any number of goroutines with no synchronization: Clone finds
// nothing to seal, ReadCSR finds nothing to compact, and neither writes
// anything to it.
func (s *Store) Clone() *Store {
	if s.own != nil {
		s.compactDirty()
		s.own = nil
	}
	out := *s
	return &out
}

// compactDirty merges every pending overlay into its base. Dirty clusters
// are always owned ones, so a store that owns nothing is left untouched.
func (s *Store) compactDirty() {
	if s.own == nil {
		return
	}
	for i := range s.own.clusters {
		if c := s.clusters[i]; c.dirty() {
			s.compact(c)
		}
	}
}

// owning returns the store's ownership record, starting an empty one for a
// store that owned nothing.
func (s *Store) owning() *ownership {
	if s.own == nil {
		s.own = &ownership{}
	}
	return s.own
}

// writableCluster returns the cluster for key as a struct this store may
// edit in place — a private copy, made on the first call after a Clone —
// or nil when no such cluster exists. The copy shares the base, which is
// immutable, and starts with fresh empty overlays.
func (s *Store) writableCluster(key Key) *Compressed {
	i, ok := s.clusterAt[key]
	if !ok {
		return nil
	}
	owned := s.ownClusters()
	if _, mine := owned[i]; mine {
		return s.clusters[i]
	}
	cc := *s.clusters[i]
	cc.addPairs, cc.delPairs = nil, nil // empty, but their spare capacity is shared too
	s.clusters[i] = &cc
	owned[i] = struct{}{}
	return &cc
}

// ownClusters makes the clusters slice private, if it is still the shared
// one, and returns the set of positions holding private clusters.
func (s *Store) ownClusters() map[int]struct{} {
	own := s.owning()
	if own.clusters == nil {
		s.clusters = slices.Clone(s.clusters)
		own.clusters = make(map[int]struct{})
	}
	return own.clusters
}

// createCluster adds a cluster this store owns and enters its key in both
// indexes. Snapshots read the key slices of the shared pair index, so the
// slice is replaced by a longer copy rather than shifted in place.
func (s *Store) createCluster(c *Compressed) {
	s.ownClusters()[len(s.clusters)] = struct{}{}
	if !s.own.keys {
		s.clusterAt = maps.Clone(s.clusterAt)
		s.pairIndex = maps.Clone(s.pairIndex)
		s.own.keys = true
	}
	s.clusterAt[c.Key] = len(s.clusters)
	s.clusters = append(s.clusters, c)
	s.clusterBytes += c.Bytes()

	pk := newPairKey(c.Key.Src, c.Key.Dst)
	keys := s.pairIndex[pk]
	i := sort.Search(len(keys), func(i int) bool { return !keyLess(keys[i], c.Key) })
	s.pairIndex[pk] = slices.Insert(slices.Clip(keys), i, c.Key) // clipped: Insert must reallocate
}

// ownLabels makes vertexLabels and labelFreq private, with room to append.
func (s *Store) ownLabels() {
	own := s.owning()
	if own.labels {
		return
	}
	n := len(s.vertexLabels)
	s.vertexLabels = append(make([]graph.Label, 0, n+n/8+1), s.vertexLabels...)
	s.labelFreq = maps.Clone(s.labelFreq)
	own.labels = true
}
