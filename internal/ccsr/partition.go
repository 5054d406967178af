package ccsr

import (
	"fmt"

	"csce/internal/graph"
)

// Partitioning helpers for the sharding subsystem (internal/shard): a
// loaded store is split into K shard-local stores that together cover the
// graph exactly once. The contract the shard coordinator's exactness
// argument rests on:
//
//   - every shard keeps the FULL vertex-label array under the global dense
//     vertex IDs — join keys and label statistics line up across shards
//     without any ID translation;
//
//   - shard i stores exactly the edges incident to at least one vertex it
//     owns. A boundary edge (u,v) with owner(u) != owner(v) is replicated
//     into both owners' stores, so every vertex sees its complete
//     adjacency in its owner's shard.
//
// Empty adjacency rows are absent from a cluster's row directory, so the
// global ID space costs a shard nothing per foreign vertex beyond its
// entry in the label array.

// PartitionStats describes one shard produced by Partition.
type PartitionStats struct {
	// LocalVertices is how many vertices the shard owns.
	LocalVertices int
	// Edges is how many edges the shard stores (boundary edges included).
	Edges int
	// BoundaryEdges is how many stored edges have their other endpoint
	// owned by a different shard (each cross-shard edge counts once in
	// both owners' stats).
	BoundaryEdges int
}

// EdgesAll visits every edge of the clustered graph exactly once —
// undirected edges once regardless of stored orientation, directed arcs
// once each — in deterministic cluster-key order, walking each cluster's
// row directory (O(edges), whatever the vertex count). Clusters with pending
// update overlays are compacted first (like Clone), so the receiver must
// not be a store concurrent readers are matching against.
func (s *Store) EdgesAll(fn func(src, dst graph.VertexID, el graph.EdgeLabel)) {
	for _, k := range s.Keys() {
		out := s.read(k).Out
		for i, src := range out.rows {
			for _, dst := range out.rowAt(i) {
				if !k.Directed && dst < src {
					continue // the (dst,src) orientation already emitted it
				}
				fn(src, dst, k.Edge)
			}
		}
	}
}

// Partition splits the store into k shard-local stores under the given
// ownership function (owner(v) must return a stable value in [0,k)).
// Every shard receives the full vertex-label array; shard i receives the
// edges incident to at least one vertex it owns, with boundary edges
// replicated into both owners. The label table is shared across all
// shards (append-only, interning serialized by callers), matching Clone's
// contract.
func (s *Store) Partition(k int, owner func(graph.VertexID) int) ([]*Store, []PartitionStats, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("ccsr: partition count %d < 1", k)
	}
	builders := make([]*graph.Builder, k)
	stats := make([]PartitionStats, k)
	for i := range builders {
		builders[i] = graph.NewBuilder(s.directed)
		builders[i].SetNames(s.names)
	}
	owners := make([]int, s.numVertices)
	for v := 0; v < s.numVertices; v++ {
		o := owner(graph.VertexID(v))
		if o < 0 || o >= k {
			return nil, nil, fmt.Errorf("ccsr: owner(%d) = %d out of range [0,%d)", v, o, k)
		}
		owners[v] = o
		stats[o].LocalVertices++
		l := s.vertexLabels[v]
		for i := range builders {
			builders[i].AddVertex(l)
		}
	}
	s.EdgesAll(func(src, dst graph.VertexID, el graph.EdgeLabel) {
		ou, ov := owners[src], owners[dst]
		builders[ou].AddEdge(src, dst, el)
		stats[ou].Edges++
		if ov != ou {
			builders[ov].AddEdge(src, dst, el)
			stats[ov].Edges++
			stats[ou].BoundaryEdges++
			stats[ov].BoundaryEdges++
		}
	})
	shards := make([]*Store, k)
	for i := range builders {
		g, err := builders[i].Build()
		if err != nil {
			return nil, nil, fmt.Errorf("ccsr: build shard %d: %w", i, err)
		}
		shards[i] = Build(g)
	}
	return shards, stats, nil
}

// LabelFrequencies returns a copy of the vertex-label histogram — the
// per-shard statistic the shard coordinator aggregates for STwig root
// selection.
func (s *Store) LabelFrequencies() map[graph.Label]int {
	out := make(map[graph.Label]int, len(s.labelFreq))
	for l, n := range s.labelFreq {
		out[l] = n
	}
	return out
}
