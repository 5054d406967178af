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
// GCF scores only the frontier — unordered vertices with at least one
// ordered neighbor — and keeps each frontier vertex's Eq. 1/Eq. 2 score in
// an indexed heap. Taking u changes only the scores of u's unordered
// neighbors (their |T1|, ω1 and T2/T3 lists) and of the unordered neighbors
// of every vertex that u just made adjacent to the order (it moves from
// their T3 to their T2), so only those are rescored: a full order costs
// O(Σ_v d(v)² + |E_P| log |V_P|).

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
	st := newGCFState(es)
	order := make([]graph.VertexID, 0, n)
	for len(order) < n {
		u, ok := st.frontier.top()
		if !ok {
			u = st.seed()
		}
		order = st.take(order, u)
	}
	return order
}

// gcfState carries the incrementally maintained Eq. 1/Eq. 2 quantities.
type gcfState struct {
	es       *edgeSizes
	vs       []gcfVertex
	frontier vertexHeap[*gcfState]
	dirty    []int32 // vertices the current take rescores
	round    int32
}

// gcfVertex is one vertex's share of the state.
type gcfVertex struct {
	score      gcfScore // the frontier heap's key, rewritten only by rescore
	t1         int      // |T1|: ordered neighbors (valid for unordered vertices)
	om1        int      // omega1: min cluster size over edges to ordered neighbors
	mark       int32    // mark == round: the vertex is already in dirty
	inOrder    bool
	adjToOrder bool // the vertex has >= 1 ordered neighbor
}

func newGCFState(es *edgeSizes) *gcfState {
	n := len(es.nbrs)
	st := &gcfState{es: es, vs: make([]gcfVertex, n)}
	buf := make([]int32, 3*n) // a vertex is marked dirty once per take
	st.frontier = newVertexHeap(st, buf[:2*n])
	st.dirty = buf[2*n : 2*n]
	for v := range st.vs {
		st.vs[v].om1 = math.MaxInt
	}
	return st
}

// before orders the frontier heap: a before b when a wins Eq. 1/Eq. 2.
func (st *gcfState) before(a, b graph.VertexID) bool {
	return gcfLess(&st.vs[b].score, &st.vs[a].score)
}

// seed picks the vertex that starts a component: highest degree, then the
// smallest incident cluster size (Eq. 2), then the smallest ID. It runs
// when the frontier is empty — for the first vertex, and in a disconnected
// pattern for the first of each further component, where every unordered
// vertex has |T1| = |T2| = 0 and |T3| = its degree, so this is the Eq. 1
// cascade itself.
func (st *gcfState) seed() graph.VertexID {
	best, bestDeg, bestOmega := -1, -1, math.MaxInt
	for v, ns := range st.es.nbrs {
		if st.vs[v].inOrder {
			continue
		}
		if omega := st.es.minIncident(graph.VertexID(v)); len(ns) > bestDeg || (len(ns) == bestDeg && omega < bestOmega) {
			best, bestDeg, bestOmega = v, len(ns), omega
		}
	}
	return graph.VertexID(best)
}

// take appends u to the order, updates its neighbors' counters, and
// rescores the frontier vertices whose score u's move changed. Keys are
// rewritten one at a time, each followed by its heap fix: a fix assumes
// every other key is where the heap has it.
func (st *gcfState) take(order []graph.VertexID, u graph.VertexID) []graph.VertexID {
	st.vs[u].inOrder = true
	st.frontier.remove(u)
	st.round++
	st.dirty = st.dirty[:0]
	for k, w := range st.es.nbrs[u] {
		vw := &st.vs[w]
		newlyAdjacent := !vw.adjToOrder
		vw.adjToOrder = true
		if vw.inOrder {
			continue
		}
		vw.t1++
		vw.om1 = min(vw.om1, st.es.size[u][k])
		st.markDirty(w)
		if newlyAdjacent {
			// w moves from T3 to T2 for each of its unordered neighbors;
			// those with |T1| = 0 are not on the frontier and are scored
			// when they join it.
			for _, x := range st.es.nbrs[w] {
				if !st.vs[x].inOrder && st.vs[x].t1 > 0 {
					st.markDirty(x)
				}
			}
		}
	}
	for _, x := range st.dirty {
		st.rescore(graph.VertexID(x))
		st.frontier.fix(graph.VertexID(x))
	}
	return append(order, u)
}

func (st *gcfState) markDirty(x graph.VertexID) {
	if st.vs[x].mark != st.round {
		st.vs[x].mark = st.round
		st.dirty = append(st.dirty, int32(x))
	}
}

// rescore recomputes x's score. T2 holds the unordered neighbors uj of x
// that are also adjacent to some ordered vertex, T3 the others.
func (st *gcfState) rescore(x graph.VertexID) {
	vx := &st.vs[x]
	s := gcfScore{v: x, t1: vx.t1, om1: vx.om1, om2: math.MaxInt, om3: math.MaxInt}
	for k, uj := range st.es.nbrs[x] {
		vj := &st.vs[uj]
		if vj.inOrder {
			continue
		}
		w := st.es.size[x][k]
		if vj.adjToOrder {
			s.t2++
			s.om2 = min(s.om2, w)
		} else {
			s.t3++
			s.om3 = min(s.om3, w)
		}
	}
	vx.score = s
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
	bound := 0
	for v := 0; v < n; v++ {
		bound += len(p.Out(graph.VertexID(v)))
		if p.Directed() {
			bound += len(p.In(graph.VertexID(v)))
		}
	}
	es := &edgeSizes{nbrs: make([][]graph.VertexID, n), size: make([][]int, n)}
	flat := make([]graph.VertexID, 0, bound)
	for v := range es.nbrs {
		start := len(flat)
		flat = p.AppendUndirectedNeighbors(flat, graph.VertexID(v))
		es.nbrs[v] = flat[start:len(flat):len(flat)]
	}
	sizes := make([]int, len(flat))
	for v, ns := range es.nbrs {
		es.size[v], sizes = sizes[:len(ns):len(ns)], sizes[len(ns):]
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
