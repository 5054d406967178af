package shard

import (
	"fmt"
	"sync/atomic"

	"csce/internal/graph"
)

// STwig-style pattern decomposition, after Sun et al., "Efficient Subgraph
// Matching on Billion Node Graphs" (PAPERS.md): the pattern is covered by
// rooted stars (each edge in exactly one star), roots picked greedily by
// the selectivity score deg(u)/freq(label(u)) computed from the
// coordinator's aggregated per-shard label statistics. After the first
// twig, roots are restricted to vertices already bound by earlier twigs,
// so every join step shares at least one query vertex with the
// accumulated result — no cartesian products for connected patterns.

// Decomposition is the sharded-path "plan": the twig cover of one pattern.
type Decomposition struct {
	Twigs []Twig

	// programs holds, by shard index, each local shard's twigs compiled
	// against its store; a shard fills its slot on its first request for
	// this decomposition and again whenever it answers at another store
	// version. Set by the coordinator, which caches the two together.
	programs []atomic.Pointer[twigPrograms]
}

// patternEdge is one pattern edge in its original orientation.
type patternEdge struct {
	src, dst graph.VertexID
	label    graph.EdgeLabel
}

// Decompose covers p's edges with rooted stars. freq gives the data-graph
// frequency of a vertex label (0 is fine — rarer is more selective); it
// steers root choice only, never correctness. An edgeless single-vertex
// pattern becomes one twig holding the whole pattern.
func Decompose(p *graph.Graph, freq func(graph.Label) int) (*Decomposition, error) {
	n := p.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty pattern", ErrPattern)
	}
	var edges []patternEdge
	p.Edges(func(src, dst graph.VertexID, el graph.EdgeLabel) {
		edges = append(edges, patternEdge{src, dst, el})
	})
	if len(edges) == 0 {
		if n > 1 {
			// plan.Optimize rejects disconnected patterns too; fail the same
			// way before shipping anything to shards.
			return nil, fmt.Errorf("%w: pattern must be connected", ErrPattern)
		}
		sub := cloneVertices(p, []graph.VertexID{0})
		return &Decomposition{Twigs: []Twig{{Sub: sub, Root: 0, QVerts: []graph.VertexID{0}}}}, nil
	}

	// incident[v] lists edge indices touching v; covered marks spent edges.
	incident := make([][]int, n)
	for i, e := range edges {
		incident[e.src] = append(incident[e.src], i)
		incident[e.dst] = append(incident[e.dst], i)
	}
	covered := make([]bool, len(edges))
	uncov := make([]int, n) // uncovered degree per vertex
	for v := range incident {
		uncov[v] = len(incident[v])
	}
	bound := make([]bool, n) // vertices appearing in an emitted twig
	remaining := len(edges)

	score := func(v int) float64 {
		// Higher is better: cover many edges per twig, prefer rare labels.
		return float64(uncov[v]) / float64(freq(p.Label(graph.VertexID(v)))+1)
	}
	pickRoot := func(restrictToBound bool) int {
		best, bestScore := -1, -1.0
		for v := 0; v < n; v++ {
			if uncov[v] == 0 || (restrictToBound && !bound[v]) {
				continue
			}
			if sc := score(v); sc > bestScore {
				best, bestScore = v, sc
			}
		}
		return best
	}

	var twigs []Twig
	for remaining > 0 {
		root := pickRoot(len(twigs) > 0)
		if root < 0 {
			// No bound vertex has uncovered edges: the pattern is
			// disconnected (a connected pattern always grows the bound
			// component edge by edge).
			return nil, fmt.Errorf("%w: pattern must be connected", ErrPattern)
		}
		// The twig takes every uncovered edge incident to the root.
		qverts := []graph.VertexID{graph.VertexID(root)}
		subIdx := make(map[graph.VertexID]graph.VertexID, 4)
		subIdx[graph.VertexID(root)] = 0
		var twigEdges []patternEdge
		for _, ei := range incident[root] {
			if covered[ei] {
				continue
			}
			covered[ei] = true
			remaining--
			e := edges[ei]
			uncov[e.src]--
			uncov[e.dst]--
			other := e.src
			if other == graph.VertexID(root) {
				other = e.dst
			}
			if _, ok := subIdx[other]; !ok {
				subIdx[other] = graph.VertexID(len(qverts))
				qverts = append(qverts, other)
			}
			twigEdges = append(twigEdges, e)
		}
		b := graph.NewBuilder(p.Directed())
		b.SetNames(p.Names)
		for _, qv := range qverts {
			b.AddVertex(p.Label(qv))
		}
		for _, e := range twigEdges {
			b.AddEdge(subIdx[e.src], subIdx[e.dst], e.label)
		}
		sub, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("shard: build twig: %w", err)
		}
		twigs = append(twigs, Twig{Sub: sub, Root: 0, QVerts: qverts})
		for _, qv := range qverts {
			bound[qv] = true
		}
	}
	return &Decomposition{Twigs: twigs}, nil
}

// cloneVertices builds a sub-pattern holding just the listed vertices.
func cloneVertices(p *graph.Graph, verts []graph.VertexID) *graph.Graph {
	b := graph.NewBuilder(p.Directed())
	b.SetNames(p.Names)
	for _, v := range verts {
		b.AddVertex(p.Label(v))
	}
	return b.MustBuild()
}
