package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	directed bool
	labels   []Label
	edges    []builderEdge
	names    *LabelTable
}

type builderEdge struct {
	src, dst VertexID
	label    EdgeLabel
}

// NewBuilder returns a Builder for a directed or undirected graph.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed}
}

// SetNames attaches a label table so the built graph can print symbolic
// label names. Optional.
func (b *Builder) SetNames(t *LabelTable) { b.names = t }

// AddVertex appends a vertex with the given label and returns its ID.
func (b *Builder) AddVertex(l Label) VertexID {
	b.labels = append(b.labels, l)
	return VertexID(len(b.labels) - 1)
}

// AddVertices appends n vertices sharing label l and returns the first ID.
func (b *Builder) AddVertices(n int, l Label) VertexID {
	first := VertexID(len(b.labels))
	for i := 0; i < n; i++ {
		b.labels = append(b.labels, l)
	}
	return first
}

// SetVertexLabel overrides the label of an existing vertex.
func (b *Builder) SetVertexLabel(v VertexID, l Label) { b.labels[v] = l }

// AddEdge records an edge from src to dst with the given edge label. For an
// undirected builder the edge is symmetric regardless of argument order.
// Self-loops are rejected at Build time.
func (b *Builder) AddEdge(src, dst VertexID, l EdgeLabel) {
	b.edges = append(b.edges, builderEdge{src, dst, l})
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// Build validates the accumulated data and returns the finished Graph.
// Duplicate edges (same endpoints, direction, and label) are collapsed.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	g := &Graph{
		directed:  b.directed,
		labels:    append([]Label(nil), b.labels...),
		out:       make([][]Neighbor, n),
		labelFreq: make(map[Label]int),
		Names:     b.names,
	}
	if b.directed {
		g.in = make([][]Neighbor, n)
	}
	for _, l := range g.labels {
		g.labelFreq[l]++
	}
	g.vertexLabelCount = len(g.labelFreq)

	// Validate and count first, so every adjacency row is carved out of
	// one slab at its final size: one allocation instead of a growing
	// append per row.
	outDeg := make([]int, n)
	var inDeg []int
	if b.directed {
		inDeg = make([]int, n)
	}
	edgeLabels := make(map[EdgeLabel]struct{})
	for i, e := range b.edges {
		if int(e.src) >= n || int(e.dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references vertex beyond %d", e.src, e.dst, n-1)
		}
		if e.src == e.dst {
			return nil, fmt.Errorf("graph: self-loop on vertex %d is not allowed", e.src)
		}
		if i == 0 || e.label != b.edges[i-1].label {
			edgeLabels[e.label] = struct{}{}
		}
		outDeg[e.src]++
		if b.directed {
			inDeg[e.dst]++
		} else {
			outDeg[e.dst]++
		}
	}
	slab := make([]Neighbor, 0, 2*len(b.edges))
	carve := func(rows [][]Neighbor, deg []int) {
		for v, d := range deg {
			if d > 0 {
				rows[v] = slab[len(slab) : len(slab) : len(slab)+d]
				slab = slab[:len(slab)+d]
			}
		}
	}
	carve(g.out, outDeg)
	if b.directed {
		carve(g.in, inDeg)
	}
	for _, e := range b.edges {
		g.out[e.src] = append(g.out[e.src], Neighbor{e.dst, e.label})
		if b.directed {
			g.in[e.dst] = append(g.in[e.dst], Neighbor{e.src, e.label})
		} else {
			g.out[e.dst] = append(g.out[e.dst], Neighbor{e.src, e.label})
		}
	}
	if len(edgeLabels) > 1 || (len(edgeLabels) == 1 && !hasZeroLabel(edgeLabels)) {
		g.edgeLabelCount = len(edgeLabels)
	}

	for v := range g.out {
		g.out[v] = sortDedup(g.out[v])
	}
	if b.directed {
		for v := range g.in {
			g.in[v] = sortDedup(g.in[v])
		}
	}
	for v := range g.out {
		if b.directed {
			g.numEdges += len(g.out[v])
		} else {
			g.numEdges += len(g.out[v])
		}
	}
	if !b.directed {
		g.numEdges /= 2
	}
	return g, nil
}

// MustBuild is Build but panics on error; intended for tests and literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func hasZeroLabel(m map[EdgeLabel]struct{}) bool {
	_, ok := m[0]
	return ok
}

func sortDedup(ns []Neighbor) []Neighbor {
	if len(ns) == 0 {
		return ns
	}
	// Equal elements are identical, so the unstable sort is exact.
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if c := cmp.Compare(a.To, b.To); c != 0 {
			return c
		}
		return cmp.Compare(a.Label, b.Label)
	})
	out := ns[:1]
	for _, n := range ns[1:] {
		if last := out[len(out)-1]; last != n {
			out = append(out, n)
		}
	}
	return out
}
