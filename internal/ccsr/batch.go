package ccsr

import (
	"fmt"

	"csce/internal/graph"
)

// Batch updates: apply many edits with validation up front and compaction
// deferred to the end, the bulk-loading pattern of the graph databases the
// paper discusses. A batch is all-or-nothing per edit — the first invalid
// edit aborts with the earlier edits applied (the error says how many) —
// but unlike per-call updates, clusters are compacted once afterward
// instead of per threshold crossing.

// EditKind distinguishes batch operations.
type EditKind uint8

const (
	// EditInsert adds an edge.
	EditInsert EditKind = iota
	// EditDelete removes an edge.
	EditDelete
	// EditAddVertex appends a vertex (Src ignored; Label is the vertex
	// label reinterpreted from the edge-label field).
	EditAddVertex
)

// Edit is one batch operation.
type Edit struct {
	Kind     EditKind
	Src, Dst graph.VertexID
	// Label is the edge label for insert/delete, or the vertex label
	// (truncated to the Label range) for EditAddVertex.
	Label graph.EdgeLabel
}

// ApplyBatch applies the edits in order. On error, the successfully
// applied prefix remains in effect and the error reports the offending
// index. Compaction of dirty clusters happens once at the end, making
// large batches substantially cheaper than one-at-a-time updates.
func (s *Store) ApplyBatch(edits []Edit) error {
	for i, e := range edits {
		var err error
		switch e.Kind {
		case EditInsert:
			err = s.InsertEdge(e.Src, e.Dst, e.Label)
		case EditDelete:
			err = s.DeleteEdge(e.Src, e.Dst, e.Label)
		case EditAddVertex:
			s.AddVertex(graph.Label(e.Label))
		default:
			err = fmt.Errorf("ccsr: unknown edit kind %d", e.Kind)
		}
		if err != nil {
			return fmt.Errorf("ccsr: batch edit %d: %w", i, err)
		}
	}
	s.compactDirty()
	return nil
}
