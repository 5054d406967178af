package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"csce/internal/graph"
)

// edgeOracle is the data graph as the oracle sees it when it verifies an
// embedding edge by edge: the static base graph for the read workloads,
// the mutation generator's shadow graph for ingest-mixed.
type edgeOracle interface {
	numVertices() int
	vertexLabel(v uint32) graph.Label
	// hasArc reports the edge a->b with the given label (either
	// orientation for an undirected graph).
	hasArc(a, b uint32, l graph.EdgeLabel) bool
	// adjacent reports any edge between a and b, whatever its direction
	// or label.
	adjacent(a, b uint32) bool
}

type staticGraph struct{ g *graph.Graph }

func (s staticGraph) numVertices() int                 { return s.g.NumVertices() }
func (s staticGraph) vertexLabel(v uint32) graph.Label { return s.g.Label(graph.VertexID(v)) }
func (s staticGraph) hasArc(a, b uint32, l graph.EdgeLabel) bool {
	return s.g.HasEdgeLabeled(graph.VertexID(a), graph.VertexID(b), l)
}
func (s staticGraph) adjacent(a, b uint32) bool {
	return s.g.Adjacent(graph.VertexID(a), graph.VertexID(b))
}

func (m *mutGen) numVertices() int                 { return len(m.labels) }
func (m *mutGen) vertexLabel(v uint32) graph.Label { return m.labels[v] }
func (m *mutGen) hasArc(a, b uint32, _ graph.EdgeLabel) bool {
	return m.hasEdge(a, b)
}
func (m *mutGen) adjacent(a, b uint32) bool {
	return m.hasEdge(a, b) || (m.directed && m.hasEdge(b, a))
}

// verifyEmbedding checks one NDJSON embedding line against the data graph
// under the pattern's variant: labels, injectivity (unless homomorphic),
// every pattern edge present, and — vertex-induced — no edge between the
// images of non-adjacent pattern vertices.
func verifyEmbedding(p pattern, line []byte, o edgeOracle) error {
	var doc struct {
		Embedding []uint32 `json:"embedding"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(line), &doc); err != nil {
		return fmt.Errorf("embedding line: %w", err)
	}
	m := doc.Embedding
	n := p.g.NumVertices()
	if len(m) != n {
		return fmt.Errorf("embedding has %d vertices, pattern has %d", len(m), n)
	}
	for u, v := range m {
		if int(v) >= o.numVertices() {
			return fmt.Errorf("pattern vertex %d maps to unknown data vertex %d", u, v)
		}
		if o.vertexLabel(v) != p.g.Label(graph.VertexID(u)) {
			return fmt.Errorf("pattern vertex %d (label %d) maps to data vertex %d (label %d)",
				u, p.g.Label(graph.VertexID(u)), v, o.vertexLabel(v))
		}
	}
	if p.variant.Injective() {
		seen := make(map[uint32]int, n)
		for u, v := range m {
			if w, dup := seen[v]; dup {
				return fmt.Errorf("pattern vertices %d and %d both map to data vertex %d", w, u, v)
			}
			seen[v] = u
		}
	}
	var missing error
	p.g.Edges(func(ux, uy graph.VertexID, l graph.EdgeLabel) {
		if missing == nil && !o.hasArc(m[ux], m[uy], l) {
			missing = fmt.Errorf("pattern edge (%d,%d) maps to (%d,%d), which is not a data edge", ux, uy, m[ux], m[uy])
		}
	})
	if missing != nil {
		return missing
	}
	if p.variant == graph.VertexInduced {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !p.g.Adjacent(graph.VertexID(i), graph.VertexID(j)) && o.adjacent(m[i], m[j]) {
					return fmt.Errorf("non-adjacent pattern vertices %d,%d map to adjacent data vertices %d,%d", i, j, m[i], m[j])
				}
			}
		}
	}
	return nil
}

// checkReply applies the per-reply rules: no transport or protocol error,
// the summary's count equals the expected count, and the number of NDJSON
// embedding lines equals that count. It returns the first violation.
func checkReply(r matchReply, expect uint64) error {
	if r.err != nil {
		return r.err
	}
	if r.summary.Cancelled || r.summary.TimedOut {
		return fmt.Errorf("query cancelled=%v timed_out=%v", r.summary.Cancelled, r.summary.TimedOut)
	}
	if r.summary.RejectedBy != "" {
		return fmt.Errorf("rejected by prefilter %q; every pool pattern has embeddings", r.summary.RejectedBy)
	}
	if r.summary.Embeddings != expect {
		return fmt.Errorf("summary reports %d embeddings, oracle expects %d", r.summary.Embeddings, expect)
	}
	if r.lines != r.summary.Embeddings {
		return fmt.Errorf("%d embedding lines for a summary of %d", r.lines, r.summary.Embeddings)
	}
	return nil
}
