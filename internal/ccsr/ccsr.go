// Package ccsr implements the paper's Clustered Compressed Sparse Row
// (CCSR) index (Section IV). The data graph is clustered offline into
// edge-isomorphism classes — all edges sharing endpoint labels, edge label,
// and direction land in the same cluster — and each cluster is stored as
// run-length-compressed CSR arrays. At query time, ReadCSR (Algorithm 1)
// selects and decompresses only the clusters a pattern needs, so candidate
// lookup is a direct cluster access instead of repeated label matching.
//
// Space follows the paper's analysis: every edge appears exactly twice
// across all clusters (outgoing+incoming CSR for directed clusters, both
// orientations in one CSR for undirected clusters), and the run-length
// compression of row indices keeps the total row-index footprint at no more
// than two integers per edge.
package ccsr

import (
	"fmt"
	"sort"

	"csce/internal/graph"
)

// Key identifies an edge-isomorphism cluster: the labels of both endpoints
// in the outgoing direction, the edge label, and whether the edges are
// directed. For undirected clusters the label pair is canonicalized with
// Src <= Dst, mirroring the paper's alphabetically sorted pair identifier.
type Key struct {
	Src      graph.Label
	Dst      graph.Label
	Edge     graph.EdgeLabel
	Directed bool
}

// NewKey builds the cluster identifier for an edge between vertex labels
// src and dst. Undirected keys canonicalize the label pair.
func NewKey(src, dst graph.Label, el graph.EdgeLabel, directed bool) Key {
	if !directed && dst < src {
		src, dst = dst, src
	}
	return Key{Src: src, Dst: dst, Edge: el, Directed: directed}
}

// String renders the key like the paper's (A,B,NULL)-cluster notation.
func (k Key) String() string {
	arrow := "--"
	if k.Directed {
		arrow = "->"
	}
	return fmt.Sprintf("(%d%s%d,e%d)", k.Src, arrow, k.Dst, k.Edge)
}

// pairKey is an unordered vertex-label pair used to index the
// (ux,uy)*-clusters needed by vertex-induced negation.
type pairKey struct{ lo, hi graph.Label }

func newPairKey(a, b graph.Label) pairKey {
	if b < a {
		a, b = b, a
	}
	return pairKey{a, b}
}

// rle is a run-length-encoded non-decreasing uint32 sequence, used to
// compress CSR row-start arrays: vals[i] repeats counts[i] times.
type rle struct {
	vals   []uint32
	counts []uint32
}

// expand returns the dense row-start array the runs encode, numVertices+1
// entries long: vertices appended after the cluster was built repeat the
// final value, i.e. their rows are empty.
func (r rle) expand(numVertices int) []uint32 {
	total := 0
	for _, c := range r.counts {
		total += int(c)
	}
	out := make([]uint32, max(total, numVertices+1))
	i := 0
	var last uint32
	for run, v := range r.vals {
		for end := i + int(r.counts[run]); i < end; i++ {
			out[i] = v
		}
		last = v
	}
	for ; i < len(out); i++ {
		out[i] = last
	}
	return out
}

// row returns the column range [lo, hi) of vertex v's row by scanning the
// run counts: the dense array changes value exactly after each non-empty
// row, so run i ends at the i-th non-empty row and vals[i], vals[i+1]
// bracket it. Every other row — between boundaries, or past the last one
// (vertices added after the cluster was built) — is empty.
//
//csce:hotpath the edge-existence probe of every InsertEdge/DeleteEdge; no dense row-start array
func (r rle) row(v graph.VertexID) (lo, hi uint32) {
	end := 0 // rows [0, end) are covered by the runs scanned so far
	for i := 0; i+1 < len(r.counts); i++ {
		end += int(r.counts[i])
		if end-1 == int(v) {
			return r.vals[i], r.vals[i+1]
		}
		if end-1 > int(v) {
			break
		}
	}
	return 0, 0
}

func (r rle) bytes() int { return 4 * (len(r.vals) + len(r.counts)) }

// Compressed is the at-rest form of one cluster: run-length-compressed
// base CSR arrays plus the incremental-update overlays maintained by
// InsertEdge/DeleteEdge (merged back into the base by compaction).
type Compressed struct {
	Key      Key
	NumEdges int

	outRow rle
	outCol []uint32
	inRow  rle // directed clusters only
	inCol  []uint32

	// Update overlays: edges inserted since the base was built, and
	// tombstones for deleted base edges. Undirected clusters carry both
	// orientations of each overlay edge, like the base.
	addPairs []pair
	delPairs []pair
}

// dirty reports whether the cluster has unmerged overlay entries.
func (c *Compressed) dirty() bool { return len(c.addPairs)+len(c.delPairs) > 0 }

// Bytes returns the approximate in-memory footprint of the compressed
// cluster, used for the Fig. 11 overhead experiment.
func (c *Compressed) Bytes() int {
	return c.outRow.bytes() + 4*len(c.outCol) + c.inRow.bytes() + 4*len(c.inCol) +
		8*(len(c.addPairs)+len(c.delPairs))
}

// CSR is a decompressed compressed-sparse-row adjacency: Row(v) returns the
// sorted neighbor list of v in constant time, as the paper requires.
type CSR struct {
	rowStart []uint32 // length numVertices+1
	col      []graph.VertexID

	nonEmpty []graph.VertexID // lazily built list of vertices with a non-empty row
}

// Row returns the sorted neighbors of v within this cluster CSR.
func (c *CSR) Row(v graph.VertexID) []graph.VertexID {
	return c.col[c.rowStart[v]:c.rowStart[v+1]]
}

// RowLen returns len(Row(v)) without slicing.
func (c *CSR) RowLen(v graph.VertexID) int {
	return int(c.rowStart[v+1] - c.rowStart[v])
}

// Has reports whether w appears in v's row, by binary search.
func (c *CSR) Has(v, w graph.VertexID) bool {
	row := c.Row(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= w })
	return i < len(row) && row[i] == w
}

// NonEmptyRows returns the vertices with at least one neighbor in this
// cluster, ascending. The result is memoized; callers must not modify it.
// It serves as the candidate pool for the first vertex of a matching order.
func (c *CSR) NonEmptyRows() []graph.VertexID {
	if c.nonEmpty == nil {
		c.nonEmpty = make([]graph.VertexID, 0, 16)
		for v := 0; v+1 < len(c.rowStart); v++ {
			if c.rowStart[v+1] > c.rowStart[v] {
				c.nonEmpty = append(c.nonEmpty, graph.VertexID(v))
			}
		}
	}
	return c.nonEmpty
}

// Len returns the number of entries in the column array (the cluster size
// |I_C| from the paper's tie-breaking formulas).
func (c *CSR) Len() int { return len(c.col) }

func (c *CSR) bytes() int { return 4 * (len(c.rowStart) + len(c.col)) }

// Cluster is a decompressed cluster ready for matching. For a directed
// cluster, Out indexes source vertices and In indexes destination vertices.
// For an undirected cluster, Out holds both orientations and In is nil.
type Cluster struct {
	Key      Key
	NumEdges int
	Out      *CSR
	In       *CSR
}

// FromSrc returns the CSR to consult for neighbors of a vertex playing the
// source role of this cluster's edges; FromDst the destination role.
func (c *Cluster) FromSrc() *CSR { return c.Out }

// FromDst returns the CSR indexing destination-side vertices.
func (c *Cluster) FromDst() *CSR {
	if c.In != nil {
		return c.In
	}
	return c.Out
}

// Bytes returns the decompressed footprint.
func (c *Cluster) Bytes() int {
	b := c.Out.bytes()
	if c.In != nil {
		b += c.In.bytes()
	}
	return b
}
