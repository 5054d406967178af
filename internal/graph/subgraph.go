package graph

// This file provides subgraph extraction and structural helpers used by the
// pattern samplers, the baselines, and the test oracles.

// InducedSubgraph returns the vertex-induced subgraph G[vs] as a standalone
// graph whose vertex i corresponds to vs[i]. The second return value maps
// new IDs back to original IDs.
func InducedSubgraph(g *Graph, vs []VertexID) (*Graph, []VertexID) {
	idx := make(map[VertexID]VertexID, len(vs))
	for i, v := range vs {
		idx[v] = VertexID(i)
	}
	b := NewBuilder(g.Directed())
	b.SetNames(g.Names)
	for _, v := range vs {
		b.AddVertex(g.Label(v))
	}
	for _, v := range vs {
		for _, n := range g.Out(v) {
			w, ok := idx[n.To]
			if !ok {
				continue
			}
			if !g.Directed() && w < idx[v] {
				continue // undirected edge emitted once, from the lower new ID
			}
			b.AddEdge(idx[v], w, n.Label)
		}
	}
	sub := b.MustBuild()
	back := append([]VertexID(nil), vs...)
	return sub, back
}

// EdgeSubgraph returns the edge-induced subgraph formed by the given edges
// of g (each edge expressed as src, dst, label triples valid in g), with
// remapped dense vertex IDs, plus the new-to-old vertex mapping.
func EdgeSubgraph(g *Graph, edges [][3]uint32) (*Graph, []VertexID) {
	idx := make(map[VertexID]VertexID)
	var order []VertexID
	intern := func(v VertexID) VertexID {
		if i, ok := idx[v]; ok {
			return i
		}
		i := VertexID(len(order))
		idx[v] = i
		order = append(order, v)
		return i
	}
	type e struct {
		s, d VertexID
		l    EdgeLabel
	}
	var es []e
	for _, raw := range edges {
		es = append(es, e{intern(VertexID(raw[0])), intern(VertexID(raw[1])), EdgeLabel(raw[2])})
	}
	b := NewBuilder(g.Directed())
	b.SetNames(g.Names)
	for _, v := range order {
		b.AddVertex(g.Label(v))
	}
	for _, x := range es {
		b.AddEdge(x.s, x.d, x.l)
	}
	return b.MustBuild(), order
}

// IsConnected reports whether g is connected when edge directions are
// ignored. The empty graph counts as connected.
func IsConnected(g *Graph) bool {
	n := g.NumVertices()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	// A vertex is pushed once and has fewer than n distinct neighbors, so
	// the stack and the neighbor buffer each fit in n entries.
	buf := make([]VertexID, 2*n)
	stack, nbrs := buf[:1:n], buf[n:n]
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nbrs = g.AppendUndirectedNeighbors(nbrs[:0], v)
		for _, w := range nbrs {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// Clique returns an undirected clique on n vertices, all carrying label l.
// Used by the higher-order clustering case study (8-cliques) and tests.
func Clique(n int, l Label) *Graph {
	b := NewBuilder(false)
	b.AddVertices(n, l)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(VertexID(i), VertexID(j), 0)
		}
	}
	return b.MustBuild()
}

// Path returns an undirected path on n vertices with the given labels
// (cycled if shorter than n).
func Path(n int, labels ...Label) *Graph {
	b := NewBuilder(false)
	for i := 0; i < n; i++ {
		var l Label
		if len(labels) > 0 {
			l = labels[i%len(labels)]
		}
		b.AddVertex(l)
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1), 0)
	}
	return b.MustBuild()
}

// Cycle returns an undirected cycle on n >= 3 vertices with the given
// labels (cycled).
func Cycle(n int, labels ...Label) *Graph {
	b := NewBuilder(false)
	for i := 0; i < n; i++ {
		var l Label
		if len(labels) > 0 {
			l = labels[i%len(labels)]
		}
		b.AddVertex(l)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(VertexID(i), VertexID((i+1)%n), 0)
	}
	return b.MustBuild()
}
