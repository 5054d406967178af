package graph

import "fmt"

// LabelTable interns symbolic label names to dense Label / EdgeLabel
// values. It keeps vertex and edge label namespaces separate, mirroring the
// paper's distinct L and Σ label functions.
type LabelTable struct {
	vertexByName map[string]Label
	vertexNames  []string
	edgeByName   map[string]EdgeLabel
	edgeNames    []string
}

// NewLabelTable returns an empty table. The empty string is pre-interned as
// edge label 0 so unlabeled edges print cleanly.
func NewLabelTable() *LabelTable {
	t := &LabelTable{
		vertexByName: make(map[string]Label),
		edgeByName:   make(map[string]EdgeLabel),
	}
	t.edgeByName[""] = 0
	t.edgeNames = append(t.edgeNames, "")
	return t
}

// Vertex interns a vertex label name.
func (t *LabelTable) Vertex(name string) Label {
	if l, ok := t.vertexByName[name]; ok {
		return l
	}
	l := Label(len(t.vertexNames))
	t.vertexByName[name] = l
	t.vertexNames = append(t.vertexNames, name)
	return l
}

// Edge interns an edge label name. The empty name is edge label 0 (NULL).
func (t *LabelTable) Edge(name string) EdgeLabel {
	if l, ok := t.edgeByName[name]; ok {
		return l
	}
	l := EdgeLabel(len(t.edgeNames))
	t.edgeByName[name] = l
	t.edgeNames = append(t.edgeNames, name)
	return l
}

// vertexBytes interns a vertex label name given as bytes; only a name seen
// for the first time is copied into a string.
func (t *LabelTable) vertexBytes(name []byte) Label {
	if l, ok := t.vertexByName[string(name)]; ok {
		return l
	}
	return t.Vertex(string(name))
}

// edgeBytes is vertexBytes for edge label names.
func (t *LabelTable) edgeBytes(name []byte) EdgeLabel {
	if l, ok := t.edgeByName[string(name)]; ok {
		return l
	}
	return t.Edge(string(name))
}

// VertexName returns the symbolic name of a vertex label, or a numeric
// placeholder when the label was never interned by name.
func (t *LabelTable) VertexName(l Label) string {
	if t != nil && int(l) < len(t.vertexNames) {
		return t.vertexNames[l]
	}
	return fmt.Sprintf("L%d", l)
}

// EdgeName returns the symbolic name of an edge label.
func (t *LabelTable) EdgeName(l EdgeLabel) string {
	if t != nil && int(l) < len(t.edgeNames) {
		return t.edgeNames[l]
	}
	return fmt.Sprintf("E%d", l)
}

// NumVertexLabels returns how many vertex label names are interned.
func (t *LabelTable) NumVertexLabels() int { return len(t.vertexNames) }

// NumEdgeLabels returns how many edge label names are interned (including
// the pre-interned empty name at label 0).
func (t *LabelTable) NumEdgeLabels() int { return len(t.edgeNames) }
