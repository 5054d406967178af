package plan

import (
	"math"
	"slices"

	"csce/internal/ccsr"
	"csce/internal/graph"
)

// GeneratePlan implements Algorithm 4: it selects a specific topological
// order of H — the Largest-Descendant-Size-First order — as the final
// matching order Φ*. Unlike Kahn's algorithm, ties among ready vertices are
// broken to maximize candidate reuse and minimize candidate counts:
//
//  1. largest descendant size (Algorithm 3),
//  2. smallest minimal cluster size over the pattern edges connecting the
//     vertex to already-ordered vertices,
//  3. lowest data-graph label frequency,
//  4. smallest vertex ID (determinism).
//
// store may be nil; the cluster and frequency tie-breakers then fall back
// to pattern-local information.
func GeneratePlan(h *DAG, descSizes []int, store *ccsr.Store, p *graph.Graph) []graph.VertexID {
	return generatePlan(h, descSizes, store, p, newEdgeSizes(p, store))
}

// generatePlan keeps the ready set in a heap under the four keys above,
// a strict total order. Descendant sizes never change, and key 2 (ω, kept
// per vertex) only falls, when a neighbor is ordered, so a ready vertex
// only ever moves up. Label frequencies are looked up on ties only, once
// per vertex. Selecting the order costs O((|V_P| + |E_H|) log |V_P| +
// |E_P| log d).
func generatePlan(h *DAG, descSizes []int, store *ccsr.Store, p *graph.Graph, es *edgeSizes) []graph.VertexID {
	n := h.N()
	st := &ldsfState{desc: descSizes, store: store, p: p, vs: make([]ldsfVertex, n)}
	st.ready = newVertexHeap(st, make([]int32, 2*n))
	for v := range st.vs {
		st.vs[v] = ldsfVertex{omega: math.MaxInt, freq: -1, indeg: len(h.In(v))}
		if st.vs[v].indeg == 0 {
			st.ready.fix(graph.VertexID(v))
		}
	}

	order := make([]graph.VertexID, 0, n)
	for {
		v, ok := st.ready.top()
		if !ok {
			return order
		}
		st.ready.remove(v)
		order = append(order, v)
		st.vs[v].inOrder = true
		// ω(w) is the smallest size, seen from w, of an edge between w and
		// an ordered neighbor.
		for _, w := range es.nbrs[v] {
			vw := &st.vs[w]
			if vw.inOrder {
				continue
			}
			k, _ := slices.BinarySearch(es.nbrs[w], v)
			if size := es.size[w][k]; size < vw.omega {
				vw.omega = size
				if st.ready.has(w) {
					st.ready.fix(w)
				}
			}
		}
		for _, c := range h.Out(int(v)) {
			if st.vs[c].indeg--; st.vs[c].indeg == 0 {
				st.ready.fix(graph.VertexID(c))
			}
		}
	}
}

// ldsfState holds the LDSF keys of every vertex.
type ldsfState struct {
	desc  []int
	vs    []ldsfVertex
	store *ccsr.Store
	p     *graph.Graph
	ready vertexHeap[*ldsfState]
}

type ldsfVertex struct {
	omega   int // smallest cluster size to an ordered neighbor; math.MaxInt before the first
	freq    int // label frequency, -1 until a tie needs it
	indeg   int // H-parents not yet ordered
	inOrder bool
}

// before reports whether a precedes b in the LDSF order.
func (st *ldsfState) before(a, b graph.VertexID) bool {
	switch va, vb := &st.vs[a], &st.vs[b]; {
	case st.desc[a] != st.desc[b]:
		return st.desc[a] > st.desc[b]
	case va.omega != vb.omega:
		return va.omega < vb.omega
	}
	if fa, fb := st.labelFreq(a), st.labelFreq(b); fa != fb {
		return fa < fb
	}
	return a < b
}

func (st *ldsfState) labelFreq(v graph.VertexID) int {
	if st.vs[v].freq < 0 {
		if st.store != nil {
			st.vs[v].freq = st.store.LabelFrequency(st.p.Label(v))
		} else {
			st.vs[v].freq = st.p.LabelFrequency(st.p.Label(v))
		}
	}
	return st.vs[v].freq
}
