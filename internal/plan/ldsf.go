package plan

import (
	"math"

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

func generatePlan(h *DAG, descSizes []int, store *ccsr.Store, p *graph.Graph, es *edgeSizes) []graph.VertexID {
	n := h.N()
	order := make([]graph.VertexID, 0, n)
	inOrder := make([]bool, n)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(h.In(v))
	}
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}

	labelFreq := func(v graph.VertexID) int {
		if store != nil {
			return store.LabelFrequency(p.Label(v))
		}
		return p.LabelFrequency(p.Label(v))
	}
	minClusterToOrdered := func(v graph.VertexID) int {
		best := math.MaxInt
		for k, uj := range es.nbrs[v] {
			if inOrder[uj] {
				best = min(best, es.size[v][k])
			}
		}
		return best
	}

	for len(ready) > 0 {
		// Scan the ready set for the LDSF winner. n is at most a few
		// thousand, so the quadratic scan is cheaper than a keyed heap that
		// would need re-prioritization as inOrder changes.
		bestIdx := 0
		bestOmega := minClusterToOrdered(graph.VertexID(ready[0]))
		for i := 1; i < len(ready); i++ {
			cur, best := ready[i], ready[bestIdx]
			var curOmega int
			switch {
			case descSizes[cur] != descSizes[best]:
				if descSizes[cur] > descSizes[best] {
					bestIdx = i
					bestOmega = minClusterToOrdered(graph.VertexID(cur))
				}
				continue
			default:
				curOmega = minClusterToOrdered(graph.VertexID(cur))
				if curOmega != bestOmega {
					if curOmega < bestOmega {
						bestIdx, bestOmega = i, curOmega
					}
					continue
				}
				lf, lb := labelFreq(graph.VertexID(cur)), labelFreq(graph.VertexID(best))
				if lf != lb {
					if lf < lb {
						bestIdx, bestOmega = i, curOmega
					}
					continue
				}
				if cur < best {
					bestIdx, bestOmega = i, curOmega
				}
			}
		}

		v := ready[bestIdx]
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)
		order = append(order, graph.VertexID(v))
		inOrder[v] = true
		for _, c := range h.Out(v) {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, int(c))
			}
		}
	}
	return order
}
