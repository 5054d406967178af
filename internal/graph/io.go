package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The text format understood by Parse/Format is a small superset of the
// edge-list format used by the subgraph-matching literature:
//
//	# comment
//	t directed|undirected
//	v <id> <vertexLabel>
//	e <src> <dst> [edgeLabel]
//
// Vertex IDs must be dense starting at 0 but may appear in any order.
// Labels are arbitrary tokens interned through a LabelTable, so both
// numeric ("7") and symbolic ("Person") labels work.

// Parse reads a graph in the text format from r with a fresh label table.
func Parse(r io.Reader) (*Graph, error) { return ParseWith(r, NewLabelTable()) }

// ParseWith reads a graph in the text format from r, interning labels into
// the supplied table. A pattern graph must be parsed with its data graph's
// table so that equal label names map to equal label values.
//
// Lines are tokenized in place in the scanner's buffer, so the per-line
// cost is free of allocation: only new label names become strings.
func ParseWith(r io.Reader, names *LabelTable) (*Graph, error) {
	buf := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(buf)
	sc := bufio.NewScanner(r)
	sc.Buffer(*buf, maxLineBytes)

	directed := false
	sawHeader := false
	type rawVertex struct {
		id    int
		label Label
	}
	var vertices []rawVertex
	type rawEdge struct {
		src, dst int
		label    EdgeLabel
	}
	var edges []rawEdge
	maxID := -1

	var fields [5][]byte
	lineNo := 0
	for sc.Scan() {
		lineNo++
		nf := splitFields(sc.Bytes(), &fields)
		if nf == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "t":
			if nf != 2 {
				return nil, fmt.Errorf("graph: line %d: want \"t directed|undirected\"", lineNo)
			}
			switch string(fields[1]) {
			case "directed":
				directed = true
			case "undirected":
				directed = false
			default:
				return nil, fmt.Errorf("graph: line %d: unknown graph type %q", lineNo, fields[1])
			}
			sawHeader = true
		case "v":
			if nf != 3 {
				return nil, fmt.Errorf("graph: line %d: want \"v id label\"", lineNo)
			}
			id, ok := parseID(fields[1])
			if !ok {
				return nil, fmt.Errorf("graph: line %d: bad vertex id %q", lineNo, fields[1])
			}
			vertices = append(vertices, rawVertex{id, names.vertexBytes(fields[2])})
			if id > maxID {
				maxID = id
			}
		case "e":
			if nf != 3 && nf != 4 {
				return nil, fmt.Errorf("graph: line %d: want \"e src dst [label]\"", lineNo)
			}
			src, ok1 := parseID(fields[1])
			dst, ok2 := parseID(fields[2])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("graph: line %d: bad edge endpoints", lineNo)
			}
			var el EdgeLabel
			if nf == 4 {
				el = names.edgeBytes(fields[3])
			}
			edges = append(edges, rawEdge{src, dst, el})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("graph: missing \"t directed|undirected\" header")
	}
	if len(vertices) != maxID+1 {
		return nil, fmt.Errorf("graph: vertex ids not dense: %d declarations, max id %d", len(vertices), maxID)
	}

	b := NewBuilder(directed)
	b.SetNames(names)
	b.AddVertices(maxID+1, 0)
	b.edges = make([]builderEdge, 0, len(edges))
	seen := make([]bool, maxID+1)
	for _, v := range vertices {
		if seen[v.id] {
			return nil, fmt.Errorf("graph: vertex %d declared twice", v.id)
		}
		seen[v.id] = true
		b.SetVertexLabel(VertexID(v.id), v.label)
	}
	for _, e := range edges {
		if e.src > maxID || e.dst > maxID {
			return nil, fmt.Errorf("graph: edge (%d,%d) references undeclared vertex", e.src, e.dst)
		}
		b.AddEdge(VertexID(e.src), VertexID(e.dst), e.label)
	}
	return b.Build()
}

// maxLineBytes bounds one line of the text format.
const maxLineBytes = 1 << 24

// scanBufs recycles ParseWith's initial line buffers. 4 KiB holds any
// pattern line; a buffer the scanner outgrows for a longer one is left to
// the collector, so an idle pool pins no more than this per P.
var scanBufs = sync.Pool{New: func() any {
	b := make([]byte, 4<<10)
	return &b
}}

// splitFields splits line around Unicode white space exactly as
// strings.Fields does, without copying: f receives the first len(f)
// fields, and the count returned is capped at len(f).
func splitFields(line []byte, f *[5][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		var space bool
		size := 1
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				if n < len(f) {
					f[n] = line[start:i]
				}
				n++
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return min(n, len(f))
}

// asciiSpace is unicode.IsSpace over the ASCII range.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseID parses a vertex ID: what strconv.Atoi accepts (an optional sign,
// then decimal digits, within int64) and is not negative.
func parseID(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int(c - '0')
		if len(b) > 18 && n > (math.MaxInt64-d)/10 { // 18 digits cannot overflow
			return 0, false
		}
		n = n*10 + d
	}
	if neg && n != 0 {
		return 0, false
	}
	return n, true
}

// ParseString parses a graph from an in-memory string; convenient for tests
// and examples.
func ParseString(s string) (*Graph, error) { return Parse(strings.NewReader(s)) }

// ParseStringWith parses a graph from a string, sharing the label table.
func ParseStringWith(s string, names *LabelTable) (*Graph, error) {
	return ParseWith(strings.NewReader(s), names)
}

// MustParse is ParseString but panics on error.
func MustParse(s string) *Graph {
	g, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return g
}

// Format writes g to w in the text format read by Parse.
func Format(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	kind := "undirected"
	if g.Directed() {
		kind = "directed"
	}
	fmt.Fprintf(bw, "t %s\n", kind)
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(bw, "v %d %s\n", v, g.Names.VertexName(g.Label(VertexID(v))))
	}
	var err error
	g.Edges(func(v, w2 VertexID, l EdgeLabel) {
		if l == 0 {
			_, err = fmt.Fprintf(bw, "e %d %d\n", v, w2)
		} else {
			_, err = fmt.Fprintf(bw, "e %d %d %s\n", v, w2, g.Names.EdgeName(l))
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
