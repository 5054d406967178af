// Package graph defines the heterogeneous graph model shared by every
// component of the CSCE reproduction: vertex- and edge-labeled graphs that
// are either directed or undirected, together with the subgraph-matching
// variant vocabulary (edge-induced, vertex-induced, homomorphic) from the
// paper's problem statement (Section II).
//
// A Graph is immutable once built (see Builder). Vertices are dense
// integers; labels are small interned integers managed by a LabelTable.
// An undirected edge v–w is stored once but visible from both endpoints,
// matching the paper's convention of modelling it as the ordered pairs
// (v,w) and (w,v) while counting it as a single edge.
package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// VertexID identifies a vertex. IDs are dense: a graph with n vertices uses
// exactly the IDs 0..n-1.
type VertexID = uint32

// Label is an interned vertex label. The zero Label is a valid label (it is
// what unlabeled graphs use for every vertex).
type Label = uint16

// EdgeLabel is an interned edge label. The zero EdgeLabel plays the role of
// the paper's NULL edge label for graphs without edge labels.
type EdgeLabel = uint16

// Variant selects the subgraph-matching semantics. The paper (Section II)
// studies all three; most prior systems support only one.
type Variant uint8

const (
	// EdgeInduced finds all edge-induced (a.k.a. non-induced, monomorphic)
	// subgraphs isomorphic to the pattern: every pattern edge must map to a
	// data edge and the mapping is injective, but data vertices mapped from
	// unconnected pattern vertices may be adjacent.
	EdgeInduced Variant = iota
	// VertexInduced finds all vertex-induced (a.k.a. induced) subgraphs:
	// in addition to the edge-induced constraints, unconnected pattern
	// vertices must map to non-adjacent data vertices.
	VertexInduced
	// Homomorphic finds all homomorphisms: every pattern edge must map to a
	// data edge, but distinct pattern vertices may map to the same data
	// vertex.
	Homomorphic
)

// String returns the variant name used throughout logs and reports.
func (v Variant) String() string {
	switch v {
	case EdgeInduced:
		return "edge-induced"
	case VertexInduced:
		return "vertex-induced"
	case Homomorphic:
		return "homomorphic"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Injective reports whether the variant forbids mapping two pattern
// vertices to the same data vertex.
func (v Variant) Injective() bool { return v != Homomorphic }

// Variants lists all supported variants in a stable order.
func Variants() []Variant { return []Variant{EdgeInduced, VertexInduced, Homomorphic} }

// Neighbor is one adjacency entry: the endpoint reached and the label of
// the connecting edge.
type Neighbor struct {
	To    VertexID
	Label EdgeLabel
}

// Graph is an immutable heterogeneous graph. Construct one with a Builder
// or one of the parsing helpers in this package.
//
// For a directed graph, out[v] holds v's outgoing neighbors and in[v] its
// incoming neighbors. For an undirected graph, out[v] holds all neighbors
// of v and in is nil. Neighbor slices are sorted by (To, Label) and contain
// no duplicates; self-loops are rejected at build time, mirroring the
// paper's requirement that G has no self-loops.
type Graph struct {
	directed bool
	labels   []Label // labels[v] is the label of vertex v
	out      [][]Neighbor
	in       [][]Neighbor
	numEdges int // undirected edges counted once

	vertexLabelCount int // number of distinct vertex labels
	edgeLabelCount   int // number of distinct edge labels (0 when all edges use the zero label)
	labelFreq        map[Label]int

	Names *LabelTable // optional label names; nil for purely numeric graphs
}

// Directed reports whether the graph's edges are directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E|, counting each undirected edge once.
func (g *Graph) NumEdges() int { return g.numEdges }

// Label returns the label of vertex v.
func (g *Graph) Label(v VertexID) Label { return g.labels[v] }

// Labels returns the label slice indexed by vertex ID. Callers must not
// modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Out returns v's outgoing neighbors (all neighbors for an undirected
// graph), sorted by (To, Label). Callers must not modify the slice.
func (g *Graph) Out(v VertexID) []Neighbor { return g.out[v] }

// In returns v's incoming neighbors. For an undirected graph In and Out
// coincide.
func (g *Graph) In(v VertexID) []Neighbor {
	if !g.directed {
		return g.out[v]
	}
	return g.in[v]
}

// Degree returns the number of neighbor vertices of v, counting a vertex
// reachable both ways once, per the paper's definition d(v).
func (g *Graph) Degree(v VertexID) int {
	if !g.directed {
		return len(g.out[v])
	}
	return len(g.UndirectedNeighbors(v))
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.out[v]) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v VertexID) int { return len(g.In(v)) }

// HasEdge reports whether an edge v->w exists (any edge label). On an
// undirected graph it reports whether v and w are adjacent.
func (g *Graph) HasEdge(v, w VertexID) bool {
	_, ok := g.EdgeLabelOf(v, w)
	return ok
}

// Adjacent reports whether there is an edge between v and w in either
// direction.
func (g *Graph) Adjacent(v, w VertexID) bool {
	if g.HasEdge(v, w) {
		return true
	}
	return g.directed && g.HasEdge(w, v)
}

// EdgeLabelOf returns the label of the edge v->w, if present. When parallel
// edges with different labels exist, the smallest label is returned.
func (g *Graph) EdgeLabelOf(v, w VertexID) (EdgeLabel, bool) {
	row := g.out[v]
	i := searchNeighbor(row, w)
	if i < len(row) && row[i].To == w {
		return row[i].Label, true
	}
	return 0, false
}

// HasEdgeLabeled reports whether an edge v->w with the given label exists.
func (g *Graph) HasEdgeLabeled(v, w VertexID, l EdgeLabel) bool {
	row := g.out[v]
	for i := searchNeighbor(row, w); i < len(row) && row[i].To == w; i++ {
		if row[i].Label == l {
			return true
		}
	}
	return false
}

// VertexLabelCount returns the number of distinct vertex labels. Following
// Table IV, a graph whose vertices all share one label reports it as
// "unlabeled" via Heterogeneous.
func (g *Graph) VertexLabelCount() int { return g.vertexLabelCount }

// EdgeLabelCount returns the number of distinct non-zero edge labels.
func (g *Graph) EdgeLabelCount() int { return g.edgeLabelCount }

// Heterogeneous reports whether the graph is heterogeneous per the paper's
// definition: more than two label kinds across vertices and edges
// (l_v + l_e > 2).
func (g *Graph) Heterogeneous() bool {
	lv := g.vertexLabelCount
	le := g.edgeLabelCount
	if le == 0 {
		le = 1 // the implicit NULL edge label
	}
	return lv+le > 2
}

// LabelFrequency returns how many vertices carry label l.
func (g *Graph) LabelFrequency(l Label) int { return g.labelFreq[l] }

// VerticesWithLabel returns all vertices carrying label l, in ascending ID
// order. It allocates; prefer LabelFrequency when only the count matters.
func (g *Graph) VerticesWithLabel(l Label) []VertexID {
	out := make([]VertexID, 0, g.labelFreq[l])
	for v, lab := range g.labels {
		if lab == l {
			out = append(out, VertexID(v))
		}
	}
	return out
}

// Edges calls fn for every edge exactly once. Directed graphs visit each
// arc (v,w); undirected graphs visit each edge once with v < w.
func (g *Graph) Edges(fn func(v, w VertexID, l EdgeLabel)) {
	for v := range g.out {
		for _, n := range g.out[v] {
			if !g.directed && n.To < VertexID(v) {
				continue
			}
			fn(VertexID(v), n.To, n.Label)
		}
	}
}

// WriteSignature writes g's exact structure to b: directedness, vertex
// labels, and the labeled edge list in Edges order. Equal graphs write
// equal signatures; isomorphic but differently numbered graphs do not, so
// caches that key on it never pay for a canonical form. It takes about
// SignatureSize bytes, which a caller can Grow b by first.
func (g *Graph) WriteSignature(b *strings.Builder) {
	if g.directed {
		b.WriteByte('d')
	} else {
		b.WriteByte('u')
	}
	b.WriteByte('|')
	for _, l := range g.labels {
		b.WriteString(strconv.Itoa(int(l)))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	g.Edges(func(src, dst VertexID, el EdgeLabel) {
		b.WriteString(strconv.Itoa(int(src)))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(int(dst)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(el)))
		b.WriteByte(';')
	})
}

// SignatureSize estimates the length of g's signature.
func (g *Graph) SignatureSize() int { return 4 + 8*g.NumVertices() + 12*g.NumEdges() }

// UndirectedNeighbors returns the distinct neighbor IDs of v ignoring edge
// direction and labels, sorted ascending.
func (g *Graph) UndirectedNeighbors(v VertexID) []VertexID {
	n := len(g.out[v])
	if g.directed {
		n += len(g.in[v])
	}
	return g.AppendUndirectedNeighbors(make([]VertexID, 0, n), v)
}

// AppendUndirectedNeighbors appends UndirectedNeighbors(v) to dst, so a
// caller collecting every vertex's neighbors can keep them in one array.
func (g *Graph) AppendUndirectedNeighbors(dst []VertexID, v VertexID) []VertexID {
	out, in := g.out[v], []Neighbor(nil)
	if g.directed {
		in = g.in[v]
	}
	start := len(dst)
	for i, j := 0, 0; i < len(out) || j < len(in); {
		var w VertexID
		if j == len(in) || (i < len(out) && out[i].To <= in[j].To) {
			w, i = out[i].To, i+1
		} else {
			w, j = in[j].To, j+1
		}
		if len(dst) == start || dst[len(dst)-1] != w {
			dst = append(dst, w)
		}
	}
	return dst
}

// searchNeighbor returns the first index in row whose To is >= w.
func searchNeighbor(row []Neighbor, w VertexID) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].To < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
