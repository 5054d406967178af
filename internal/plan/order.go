package plan

import (
	"math"

	"csce/internal/ccsr"
	"csce/internal/graph"
)

// This file implements the initial matching-order heuristics of Section VI:
// RI's Greatest-Constraint-First rules (Eq. 1), the paper's CCSR-based
// tie-breaking (Eq. 2), and the RapidMatch-style order used as the Fig. 13
// baseline.
//
// GCF is implemented incrementally: the Eq. 1 counters of every unordered
// vertex are maintained as the order grows, so selecting a full order costs
// O(|V_P| * |E_P|) instead of the naive cubic scan — the difference between
// seconds and hours for the paper's 2000-vertex patterns (Fig. 10).

// GCF computes a Greatest-Constraint-First matching order for pattern p.
// When store is non-nil, ties are broken using cluster sizes (Eq. 2);
// otherwise the pure RI rules apply (ties fall through to the smallest
// vertex ID for determinism).
func GCF(p *graph.Graph, store *ccsr.Store) []graph.VertexID {
	return gcf(newEdgeSizes(p, store))
}

func gcf(es *edgeSizes) []graph.VertexID {
	n := len(es.nbrs)
	if n == 0 {
		return nil
	}
	st := &gcfState{
		es:         es,
		inOrder:    make([]bool, n),
		adjToOrder: make([]bool, n),
		t1:         make([]int, n),
		om1:        make([]int, n),
	}
	for v := range st.om1 {
		st.om1[v] = math.MaxInt
	}

	// First vertex: highest degree; cluster tie-break minimizes the
	// smallest incident cluster size.
	best := -1
	bestDeg := -1
	bestOmega := math.MaxInt
	for v := 0; v < n; v++ {
		deg := len(es.nbrs[v])
		omega := es.minIncident(graph.VertexID(v))
		if deg > bestDeg || (deg == bestDeg && omega < bestOmega) {
			best, bestDeg, bestOmega = v, deg, omega
		}
	}
	order := make([]graph.VertexID, 0, n)
	order = st.take(order, graph.VertexID(best))
	for len(order) < n {
		order = st.take(order, st.pick())
	}
	return order
}

// gcfState carries the incrementally maintained Eq. 1/Eq. 2 quantities.
type gcfState struct {
	es *edgeSizes

	inOrder    []bool
	adjToOrder []bool // vertex has >= 1 ordered neighbor
	t1         []int  // |T1|: ordered neighbors (valid for unordered vertices)
	om1        []int  // omega1: min cluster size over edges to ordered neighbors
}

// take appends u to the order and updates neighbor counters.
func (st *gcfState) take(order []graph.VertexID, u graph.VertexID) []graph.VertexID {
	st.inOrder[u] = true
	for k, w := range st.es.nbrs[u] {
		st.adjToOrder[w] = true
		if !st.inOrder[w] {
			st.t1[w]++
			st.om1[w] = min(st.om1[w], st.es.size[u][k])
		}
	}
	return append(order, u)
}

// pick scores every unordered vertex with the three RI counters of Eq. 1
// and the cluster tie-breakers of Eq. 2, returning the winner.
func (st *gcfState) pick() graph.VertexID {
	var best *gcfScore
	for x := 0; x < len(st.inOrder); x++ {
		if st.inOrder[x] {
			continue
		}
		ux := graph.VertexID(x)
		s := gcfScore{v: ux, t1: st.t1[x], om1: st.om1[x], om2: math.MaxInt, om3: math.MaxInt}
		// T2 and T3 classify the unordered neighbors uj of ux: T2 if uj is
		// also adjacent to some ordered vertex, T3 otherwise.
		for k, uj := range st.es.nbrs[ux] {
			if st.inOrder[uj] {
				continue
			}
			w := st.es.size[ux][k]
			if st.adjToOrder[uj] {
				s.t2++
				s.om2 = min(s.om2, w)
			} else {
				s.t3++
				s.om3 = min(s.om3, w)
			}
		}
		if best == nil || gcfLess(best, &s) {
			cp := s
			best = &cp
		}
	}
	return best.v
}

// gcfScore carries the Eq. 1 counters and Eq. 2 tie-breakers of one
// candidate vertex.
type gcfScore struct {
	t1, t2, t3    int
	om1, om2, om3 int
	v             graph.VertexID
}

// gcfLess reports whether candidate b beats the current best a under the
// cascade: higher |T1|, |T2|, |T3|; then smaller ω1, ω2, ω3; then smaller
// vertex ID.
func gcfLess(a, b *gcfScore) bool {
	switch {
	case b.t1 != a.t1:
		return b.t1 > a.t1
	case b.t2 != a.t2:
		return b.t2 > a.t2
	case b.t3 != a.t3:
		return b.t3 > a.t3
	case b.om1 != a.om1:
		return b.om1 < a.om1
	case b.om2 != a.om2:
		return b.om2 < a.om2
	case b.om3 != a.om3:
		return b.om3 < a.om3
	default:
		return b.v < a.v
	}
}

// edgeClusterSize returns |I_C| of the cluster holding data edges
// isomorphic to the pattern edge(s) between ua and ub; when both
// orientations exist the smaller cluster counts.
func edgeClusterSize(p *graph.Graph, store *ccsr.Store, ua, ub graph.VertexID) int {
	best := math.MaxInt
	if l, ok := p.EdgeLabelOf(ua, ub); ok {
		if w := store.EdgeClusterSize(p.Label(ua), p.Label(ub), l); w < best {
			best = w
		}
	}
	if p.Directed() {
		if l, ok := p.EdgeLabelOf(ub, ua); ok {
			if w := store.EdgeClusterSize(p.Label(ub), p.Label(ua), l); w < best {
				best = w
			}
		}
	}
	return best
}

// RMOrder reproduces the RapidMatch ordering heuristic used as the Fig. 13
// baseline: repeatedly pick the vertex connecting the highest number of
// already-ordered vertices, starting from the highest-degree vertex; ties
// fall to higher degree, then smaller ID.
func RMOrder(p *graph.Graph) []graph.VertexID {
	n := p.NumVertices()
	if n == 0 {
		return nil
	}
	order := make([]graph.VertexID, 0, n)
	inOrder := make([]bool, n)
	conn := make([]int, n)
	best := 0
	for v := 1; v < n; v++ {
		if p.Degree(graph.VertexID(v)) > p.Degree(graph.VertexID(best)) {
			best = v
		}
	}
	take := func(u graph.VertexID) {
		order = append(order, u)
		inOrder[u] = true
		for _, w := range p.UndirectedNeighbors(u) {
			conn[w]++
		}
	}
	take(graph.VertexID(best))
	for len(order) < n {
		bestV, bestConn, bestDeg := -1, -1, -1
		for x := 0; x < n; x++ {
			if inOrder[x] {
				continue
			}
			deg := p.Degree(graph.VertexID(x))
			if conn[x] > bestConn || (conn[x] == bestConn && deg > bestDeg) {
				bestV, bestConn, bestDeg = x, conn[x], deg
			}
		}
		take(graph.VertexID(bestV))
	}
	return order
}

// edgeSizes is the pattern's undirected adjacency with every edge's
// cluster size |I_C| (Eq. 2) beside it, computed once per Optimize: GCF,
// LDSF and the cost-based order read a size by adjacency position instead
// of repeating a cluster-map lookup per edge per step. A size is the same
// from either endpoint whenever the pattern's directedness matches the
// store's, which ReadCSR requires of every plan that runs.
type edgeSizes struct {
	nbrs [][]graph.VertexID // distinct neighbors of each vertex, ascending
	size [][]int            // size[v][k] is |I_C| of edge (v, nbrs[v][k]); math.MaxInt without a store
}

func newEdgeSizes(p *graph.Graph, store *ccsr.Store) *edgeSizes {
	n := p.NumVertices()
	es := &edgeSizes{nbrs: make([][]graph.VertexID, n), size: make([][]int, n)}
	for v := range es.nbrs {
		es.nbrs[v] = p.UndirectedNeighbors(graph.VertexID(v))
	}
	total := 0
	for _, ns := range es.nbrs {
		total += len(ns)
	}
	flat := make([]int, total)
	for v, ns := range es.nbrs {
		es.size[v], flat = flat[:len(ns):len(ns)], flat[len(ns):]
		for k, w := range ns {
			es.size[v][k] = math.MaxInt
			if store != nil {
				es.size[v][k] = edgeClusterSize(p, store, graph.VertexID(v), w)
			}
		}
	}
	return es
}

// minIncident is the Eq. 2 first-vertex tie-breaker: the smallest cluster
// size over the pattern edges incident to v (math.MaxInt without a store,
// so degree alone decides).
func (es *edgeSizes) minIncident(v graph.VertexID) int {
	best := math.MaxInt
	for _, w := range es.size[v] {
		best = min(best, w)
	}
	return best
}
