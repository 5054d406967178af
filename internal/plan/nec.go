package plan

import (
	"math"
	"slices"

	"csce/internal/graph"
)

// NEC computes TurboISO-style neighborhood equivalence classes over the
// pattern vertices: u and w are equivalent when they share a label and have
// identical labeled neighborhoods once each other is excluded (so the ends
// of a triangle's base are equivalent, for example). Equivalent vertices
// have identical candidate sets under every partial embedding, so the
// executor and the reports can share their candidates.
//
// The result maps every vertex to its class; classes are returned as
// vertex groups sorted by smallest member.
//
// Each class leader u is tested only against the vertices that can be
// equivalent to it, in ascending order: an adjacent equivalent is a
// neighbor of u, and a non-adjacent one has exactly u's neighbors (the
// pattern has no self-loops), so it is a neighbor of any neighbor of u —
// the lowest-degree one is walked. An isolated u is equivalent to exactly
// the later isolated vertices with its label. That costs O(Σ_u (d(u) +
// min_{m ∈ N(u)} d(m)) log d).
func NEC(p *graph.Graph) [][]graph.VertexID {
	n := p.NumVertices()
	classOf := make([]int32, n)
	for i := range classOf {
		classOf[i] = -1
	}
	// The classes partition the vertices, and a class is complete before
	// the next starts, so they are laid end to end in one array.
	members := make([]graph.VertexID, 0, n)
	var classes [][]graph.VertexID
	var cand []graph.VertexID
	for u := 0; u < n; u++ {
		if classOf[u] != -1 {
			continue
		}
		id := int32(len(classes))
		classOf[u] = id
		start := len(members)
		members = append(members, graph.VertexID(u))
		cand = necCandidates(cand[:0], p, graph.VertexID(u), classOf)
		for _, w := range cand {
			if necEquivalent(p, graph.VertexID(u), w) {
				classOf[w] = id
				members = append(members, w)
			}
		}
		classes = append(classes, members[start:len(members):len(members)])
	}
	return classes
}

// necCandidates appends to dst, ascending and without repeats, the
// unclassified vertices after u with u's label that can be
// neighborhood-equivalent to it.
func necCandidates(dst []graph.VertexID, p *graph.Graph, u graph.VertexID, classOf []int32) []graph.VertexID {
	add := func(ns []graph.Neighbor) {
		for _, nb := range ns {
			if w := nb.To; w > u && classOf[w] == -1 && p.Label(w) == p.Label(u) {
				dst = append(dst, w)
			}
		}
	}
	degree := func(v graph.VertexID) int {
		if p.Directed() {
			return len(p.Out(v)) + len(p.In(v))
		}
		return len(p.Out(v))
	}
	if degree(u) == 0 {
		for w := u + 1; int(w) < p.NumVertices(); w++ {
			if classOf[w] == -1 && degree(w) == 0 && p.Label(w) == p.Label(u) {
				dst = append(dst, w)
			}
		}
		return dst
	}
	sides := [][]graph.Neighbor{p.Out(u), nil}
	if p.Directed() {
		sides[1] = p.In(u)
	}
	m, mDeg := graph.VertexID(0), math.MaxInt
	for _, ns := range sides {
		add(ns)
		for _, nb := range ns {
			if d := degree(nb.To); d < mDeg {
				m, mDeg = nb.To, d
			}
		}
	}
	add(p.Out(m))
	if p.Directed() {
		add(p.In(m))
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// necEquivalent reports whether u and w are neighborhood-equivalent.
func necEquivalent(p *graph.Graph, u, w graph.VertexID) bool {
	if p.Label(u) != p.Label(w) {
		return false
	}
	// Mutual adjacency must be symmetric under swapping u and w: either no
	// edges between them, or edges in both directions with equal labels.
	luw, okUW := p.EdgeLabelOf(u, w)
	lwu, okWU := p.EdgeLabelOf(w, u)
	if p.Directed() {
		if okUW != okWU {
			return false
		}
		if okUW && luw != lwu {
			return false
		}
	}
	if !sameNeighborsExcluding(p.Out(u), p.Out(w), u, w) {
		return false
	}
	if p.Directed() && !sameNeighborsExcluding(p.In(u), p.In(w), u, w) {
		return false
	}
	return true
}

// sameNeighborsExcluding compares two sorted labeled neighbor lists,
// skipping entries that point at u or w themselves.
func sameNeighborsExcluding(a, b []graph.Neighbor, u, w graph.VertexID) bool {
	i, j := 0, 0
	for {
		for i < len(a) && (a[i].To == u || a[i].To == w) {
			i++
		}
		for j < len(b) && (b[j].To == u || b[j].To == w) {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i] != b[j] {
			return false
		}
		i++
		j++
	}
}
