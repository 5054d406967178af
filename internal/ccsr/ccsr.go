// Package ccsr implements the paper's Clustered Compressed Sparse Row
// (CCSR) index (Section IV). The data graph is clustered offline into
// edge-isomorphism classes — all edges sharing endpoint labels, edge label,
// and direction land in the same cluster — and each cluster is stored as
// CSR arrays whose row index lists the non-empty rows only. At query time,
// ReadCSR (Algorithm 1) selects only the clusters a pattern needs, so
// candidate lookup is a direct cluster access instead of repeated label
// matching. Deviating from the paper, selecting is all ReadCSR does: the
// row index is searched where it lies and never expanded into a dense
// per-vertex array, because a serving daemon cannot afford O(vertices) per
// cluster per query (see DESIGN.md, "CCSR layout").
//
// Space follows the paper's analysis: every edge appears exactly twice
// across all clusters (outgoing+incoming CSR for directed clusters, both
// orientations in one CSR for undirected clusters), and the row index costs
// two integers per non-empty row — what the paper's run-length compression
// of a dense row-start array costs — so no more than two integers per edge.
package ccsr

import (
	"fmt"

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

// Compressed is the at-rest form of one cluster, which is also its
// matchable form: the base arrays, built once by buildCluster or Decode and
// never edited afterwards, plus the incremental-update overlays maintained
// by InsertEdge/DeleteEdge (merged into a fresh base by compaction).
type Compressed struct {
	Key      Key
	NumEdges int // the current count, overlays included

	// base is immutable and is what ReadCSR hands to queries, so whoever
	// holds it — any number of views, on any epoch — needs no copy and no
	// synchronization. Compaction replaces the pointer.
	base *Cluster

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
	return c.base.Bytes() + 8*(len(c.addPairs)+len(c.delPairs))
}

// CSR is one side of a cluster: a compressed-sparse-row adjacency whose row
// index is a directory of the non-empty rows only — their ascending vertex
// ids and, one longer, their column offsets. That is the two integers per
// non-empty row the paper's run-length-compressed row index costs (the run
// counts are the first differences of the ids), kept in the form a lookup
// can search, so there is nothing to decompress before matching.
//
// A bucketed jump index over the directory finds a row without searching
// all of it: the ids from base on are cut into buckets of 1<<shift ids, and
// bucket b holds the rows from the first directory position whose id is at
// least base + b<<shift up to the next bucket's first, so row v can only sit
// in bucket b = (v-base)>>shift. The width is the smallest power of two
// that makes at most len(rows)/jumpRows buckets (one for a shorter
// directory). The index stores the first positions of buckets 1 and up —
// bucket 0 starts at 0 and the last one ends at len(rows) — so it costs
// less than 1/16 of the directory's two integers per row, and nothing for
// a directory of fewer than 2*jumpRows rows. newCSR builds it with the
// directory, never per query, and it is never serialized. It lives in the
// capacity of offs past its length, so it costs a side neither an
// allocation nor a slice header of its own: on Yeast's 1 550 mostly tiny
// sides a header would cost more than the index. A CSR is never written
// after it is built.
type CSR struct {
	rows  []graph.VertexID // ascending ids of the non-empty rows
	offs  []uint32         // len(rows)+1 offsets: row rows[i] is col[offs[i]:offs[i+1]]; then the jump index
	col   []graph.VertexID
	base  graph.VertexID // the first row id, or 0 for an empty directory
	shift uint8          // log2 of the bucket width in ids
}

// jumpRows is the fewest directory rows per bucket on average: the jump
// index has at most len(rows)/jumpRows buckets.
const jumpRows = 8

// jumpShape returns the bucket width exponent for a directory of n > 0 rows
// whose ids span first..last — the smallest power-of-two width giving at
// most max(1, n/jumpRows) buckets — and the number of bucket starts the
// index stores, one fewer than the buckets.
func jumpShape(n int, first, last graph.VertexID) (shift uint8, starts int) {
	limit := uint64(max(1, n/jumpRows))
	span := uint64(last - first)
	for span>>shift+1 > limit {
		shift++
	}
	return shift, int(span >> shift)
}

// newCSR is the one constructor of a CSR: it takes the directory and the
// column array as they are and builds the jump index over them, in spare
// capacity of offs when there is room for it (emitRows leaves exactly
// that) and otherwise in a copy of offs grown to hold it.
func newCSR(rows []graph.VertexID, offs []uint32, col []graph.VertexID) *CSR {
	c := &CSR{rows: rows, col: col}
	var starts int
	if len(rows) > 0 {
		c.base = rows[0]
		c.shift, starts = jumpShape(len(rows), rows[0], rows[len(rows)-1])
	}
	n := len(offs)
	if cap(offs) < n+starts {
		grown := make([]uint32, n, n+starts)
		copy(grown, offs)
		offs = grown
	}
	c.offs = offs[: n : n+starts]
	jump := c.jump()
	i := 0
	for b := range jump {
		start := uint64(c.base) + uint64(b+1)<<c.shift
		for i < len(rows) && uint64(rows[i]) < start {
			i++
		}
		jump[b] = uint32(i)
	}
	return c
}

// jump returns the jump index: jump[b] is the first directory position of
// bucket b+1.
func (c *CSR) jump() []uint32 { return c.offs[len(c.offs):cap(c.offs)] }

// searchSorted returns the first position in the ascending slice xs whose
// value is >= v.
//
//csce:hotpath
func searchSorted(xs []graph.VertexID, v graph.VertexID) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether v occurs in the ascending slice xs: the probe of
// a row, and of any candidate list intersected with one.
//
//csce:hotpath
func Contains(xs []graph.VertexID, v graph.VertexID) bool {
	i := searchSorted(xs, v)
	return i < len(xs) && xs[i] == v
}

// Seek returns the first position i >= from in the ascending slice xs with
// xs[i] >= v, or len(xs). It gallops forward from from, doubling its stride
// before a binary search of the last stride, so a merge that seeks ever
// larger values costs O(log gap) per call instead of O(log len(xs)) — one
// probe when the answer is from itself.
//
//csce:hotpath
func Seek(xs []graph.VertexID, from int, v graph.VertexID) int {
	if from >= len(xs) || xs[from] >= v {
		return from
	}
	lo, hi, step := from+1, from+1, 1
	for hi < len(xs) && xs[hi] < v {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(xs))
	return lo + searchSorted(xs[lo:hi], v)
}

// rowAt returns the i-th non-empty row, the neighbors of vertex rows[i].
//
//csce:hotpath
func (c *CSR) rowAt(i int) []graph.VertexID { return c.col[c.offs[i]:c.offs[i+1]] }

// scanRows is the longest bucket Row scans front to back; a longer one is
// binary-searched. A directory of n rows has between n/(2*jumpRows) and
// n/jumpRows buckets, so a bucket averages 8 to 16 rows and nearly every
// lookup scans, while a bucket that clustered ids swelled (one far outlier
// stretches the bucket width over a dense run) keeps its O(log) search.
// BenchmarkRowLookup read 16, 32 and 64 alike within the box's noise, all
// faster than the binary search on Human and Patent.
const scanRows = 32

// Row returns the sorted neighbors of v within this cluster CSR: one
// jump-index probe, then a scan of v's bucket, or a binary search of it when
// it holds more than scanRows rows. v-base wraps for v < base, which lands
// past the last bucket or in a bucket whose search misses, so no id needs a
// separate range check.
//
//csce:hotpath under every extension step: one jump-index probe and a search of one bucket
func (c *CSR) Row(v graph.VertexID) []graph.VertexID {
	jump := c.jump()
	b := uint(v-c.base) >> c.shift
	if b > uint(len(jump)) {
		return nil
	}
	lo, hi := 0, len(c.rows)
	if b > 0 {
		lo = int(jump[b-1])
	}
	if b < uint(len(jump)) {
		hi = int(jump[b])
	}
	if hi-lo > scanRows {
		lo += searchSorted(c.rows[lo:hi], v)
	} else {
		for lo < hi && c.rows[lo] < v {
			lo++
		}
	}
	if lo < hi && c.rows[lo] == v {
		return c.rowAt(lo)
	}
	return nil
}

// RowLen returns len(Row(v)).
//
//csce:hotpath
func (c *CSR) RowLen(v graph.VertexID) int { return len(c.Row(v)) }

// Has reports whether w appears in v's row, by binary search.
//
//csce:hotpath
func (c *CSR) Has(v, w graph.VertexID) bool { return Contains(c.Row(v), w) }

// NonEmptyRows returns the vertices with at least one neighbor in this
// cluster, ascending. It is the directory itself; callers must not modify
// it. It serves as the candidate pool for the first vertex of a matching
// order.
func (c *CSR) NonEmptyRows() []graph.VertexID { return c.rows }

// Len returns the number of entries in the column array (the cluster size
// |I_C| from the paper's tie-breaking formulas).
func (c *CSR) Len() int { return len(c.col) }

// bytes counts the arrays of the side, the jump index in the capacity of
// offs included.
func (c *CSR) bytes() int { return 4 * (len(c.rows) + cap(c.offs) + len(c.col)) }

// Cluster is a cluster ready for matching. For a directed cluster, Out
// indexes source vertices and In indexes destination vertices. For an
// undirected cluster, Out holds both orientations and In is nil. A Cluster
// is immutable and shared by every view that selected it.
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

// Bytes returns the footprint of the cluster's arrays.
func (c *Cluster) Bytes() int {
	b := c.Out.bytes()
	if c.In != nil {
		b += c.In.bytes()
	}
	return b
}
