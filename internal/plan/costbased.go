package plan

import (
	"math"

	"csce/internal/ccsr"
	"csce/internal/graph"
)

// costBasedOrder is the alternative ordering heuristic the paper's
// conclusion points at as future work: instead of RI's purely structural
// Greatest-Constraint-First rules, it greedily minimizes an estimated
// partial-embedding cardinality derived from CCSR cluster statistics —
// the systematic-estimation school (Graphflow) made cheap by reusing the
// cluster sizes the index already maintains.
//
// The estimate treats the average cluster fan-out (cluster size divided by
// the frequency of the already-matched side's label) as the expected
// number of extensions one backward edge contributes, and takes the
// minimum over all backward edges, since execution intersects them.
func costBasedOrder(p *graph.Graph, store *ccsr.Store, es *edgeSizes) []graph.VertexID {
	n := p.NumVertices()
	if n == 0 {
		return nil
	}
	inOrder := make([]bool, n)
	order := make([]graph.VertexID, 0, n)

	// First vertex: smallest estimated candidate pool — the frequency of
	// its label, sharpened by its smallest incident cluster.
	best, bestEst := 0, math.MaxFloat64
	for v := 0; v < n; v++ {
		est := float64(store.LabelFrequency(p.Label(graph.VertexID(v))))
		if s := es.minIncident(graph.VertexID(v)); s != math.MaxInt {
			if cs := float64(s); cs < est {
				est = cs
			}
		}
		// Prefer constrained (high-degree) starts among equals.
		est /= float64(1 + len(es.nbrs[v]))
		if est < bestEst {
			best, bestEst = v, est
		}
	}
	order = append(order, graph.VertexID(best))
	inOrder[best] = true

	for len(order) < n {
		bestV := -1
		bestCost := math.MaxFloat64
		for x := 0; x < n; x++ {
			if inOrder[x] {
				continue
			}
			ux := graph.VertexID(x)
			fanout := math.MaxFloat64
			backEdges := 0
			for k, u := range es.nbrs[ux] {
				if !inOrder[u] {
					continue
				}
				backEdges++
				if f := edgeFanout(p, store, u, es.size[ux][k]); f < fanout {
					fanout = f
				}
			}
			if backEdges == 0 {
				continue // keep the prefix connected
			}
			// More backward edges intersect more lists: damp the estimate.
			cost := fanout / float64(backEdges)
			if cost < bestCost || (cost == bestCost && bestV > x) {
				bestV, bestCost = x, cost
			}
		}
		if bestV == -1 { // disconnected pattern: take any remaining vertex
			for x := 0; x < n; x++ {
				if !inOrder[x] {
					bestV = x
					break
				}
			}
		}
		order = append(order, graph.VertexID(bestV))
		inOrder[bestV] = true
	}
	return order
}

// edgeFanout estimates how many candidates the mapped endpoint u of a
// pattern edge with cluster size size contributes: cluster size over the
// matched side's label frequency.
func edgeFanout(p *graph.Graph, store *ccsr.Store, u graph.VertexID, size int) float64 {
	if size == math.MaxInt {
		return math.MaxFloat64
	}
	freq := store.LabelFrequency(p.Label(u))
	if freq == 0 {
		return 0
	}
	return float64(size) / float64(freq)
}
