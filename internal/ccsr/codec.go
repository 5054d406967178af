package ccsr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"csce/internal/graph"
)

// Binary serialization of a Store, so the offline clustering stage can run
// once per data graph and its output be reloaded for every subsequent
// subgraph-matching task (the red offline stage of the paper's Fig. 2).
//
// Layout (little endian):
//
//	magic "CCSR" | version u32 | directed u8 | numVertices u64 | numEdges u64
//	vertexLabels [numVertices]u16
//	numClusters u64, then per cluster:
//	  key (src u16, dst u16, edge u16, directed u8) | numEdges u64
//	  outRow rle | outCol []u32 | [inRow rle | inCol []u32]  (in* iff directed)
//	hasNames u8 | [numVertexNames u64, names... | numEdgeNames u64, names...]
//
// where an rle is: count u64, vals [count]u32, counts [count]u32, a []u32
// is: count u64 then the values, and a name is: length u64 then the bytes.
//
// The rle is the run-length encoding of a side's dense row-start array
// (numVertices+1 entries): one run per non-empty row — value: the row's
// first column offset, count: its distance from the previous non-empty
// row — plus a closing run out to numVertices. In memory the same numbers
// are a CSR's row directory: vals are its offsets as they stand, and the
// counts are the first differences of its row ids, so Encode and Decode
// convert with one pass over the non-empty rows and the bytes are those
// every file written since version 1 holds. A file whose closing run stops
// short of numVertices (written after AddVertex by a release that kept the
// count from build time) decodes the same; Encode always writes it in full.
//
// Version 2 added the label-table trailer. Label values are interned in
// first-seen order, so a pattern parsed against a fresh table maps the same
// names to different values than the original data graph did — without the
// trailer, a reloaded index silently matched patterns against the wrong
// clusters. Version-1 files still decode, with a nil table.

const (
	codecMagic   = "CCSR"
	codecVersion = 2
)

// Encode writes the store to w. Clusters with pending update overlays are
// compacted first, so the serialized form is always overlay-free.
func (s *Store) Encode(w io.Writer) error {
	s.compactDirty()
	bw := bufio.NewWriter(w)
	var err error // the first failed write; nothing is written after it
	put := func(xs ...any) {
		for _, x := range xs {
			if err == nil {
				err = binary.Write(bw, binary.LittleEndian, x)
			}
		}
	}
	keys := s.Keys()
	put([]byte(codecMagic), uint32(codecVersion), s.directed,
		uint64(s.numVertices), uint64(s.numEdges), s.vertexLabels, uint64(len(keys)))
	var counts []uint32 // scratch, reused across sides
	putSide := func(c *CSR) {
		counts = counts[:0]
		prev := -1 // the last non-empty row
		for _, row := range c.rows {
			counts = append(counts, uint32(int(row)-prev))
			prev = int(row)
		}
		counts = append(counts, uint32(s.numVertices-prev))
		put(uint64(len(c.offs)), c.offs, counts, uint64(len(c.col)), c.col)
	}
	for _, k := range keys {
		c := s.cluster(k)
		put(k, uint64(c.NumEdges)) // Key's fields, in order, are its wire form
		putSide(c.base.Out)
		if k.Directed {
			putSide(c.base.In)
		}
	}
	putNames(put, s.names)
	if err != nil {
		return err
	}
	return bw.Flush()
}

// putNames writes the label-table trailer: a presence byte, then each
// namespace's names in interned order.
func putNames(put func(...any), names *graph.LabelTable) {
	put(names != nil)
	if names == nil {
		return
	}
	putName := func(name string) { put(uint64(len(name)), []byte(name)) }
	put(uint64(names.NumVertexLabels()))
	for l := 0; l < names.NumVertexLabels(); l++ {
		putName(names.VertexName(graph.Label(l)))
	}
	put(uint64(names.NumEdgeLabels()))
	for l := 0; l < names.NumEdgeLabels(); l++ {
		putName(names.EdgeName(graph.EdgeLabel(l)))
	}
}

// maxReasonable bounds every length field; no array is allocated to a
// length the input has not backed with bytes (readInts).
const maxReasonable = 1 << 32

// readInts reads n little-endian integers. The buffer grows only as data
// actually arrives, so a hostile length field costs at most twice the
// input's size, and a complete read ends with exactly n of capacity.
func readInts[T uint16 | uint32](r io.Reader, n uint64, what string) ([]T, error) {
	if n > maxReasonable {
		return nil, fmt.Errorf("ccsr: implausible %s length %d", what, n)
	}
	xs := make([]T, min(n, 1<<16))
	for filled := 0; ; {
		if err := binary.Read(r, binary.LittleEndian, xs[filled:]); err != nil {
			return nil, fmt.Errorf("ccsr: decode %s: %w", what, err)
		}
		if filled = len(xs); uint64(filled) == n {
			return xs, nil
		}
		grown := make([]T, min(n, 2*uint64(filled)))
		copy(grown, xs)
		xs = grown
	}
}

// readSide reads one CSR side and checks everything a lookup will rely on,
// so that Row, Has and EdgesAll can index without bounds of their own:
// offsets start at 0, rise strictly and end at len(col); row ids rise
// strictly and stay below numVertices, as do the column ids; each row is
// sorted without duplicates.
func readSide(r io.Reader, numVertices uint64) (*CSR, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	offs, err := readInts[uint32](r, n, "row index")
	if err != nil {
		return nil, err
	}
	counts, err := readInts[uint32](r, n, "row index")
	if err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	col, err := readInts[uint32](r, n, "column array")
	if err != nil {
		return nil, err
	}
	if len(offs) == 0 || offs[0] != 0 || int(offs[len(offs)-1]) != len(col) {
		return nil, fmt.Errorf("ccsr: row offsets do not span the %d columns", len(col))
	}
	// Turn the run counts into row ids in place: row i sits counts[i] past
	// row i-1, and the closing run must end within the vertex range.
	next := uint64(0) // one past the previous non-empty row
	for i, c := range counts {
		if next += uint64(c); c == 0 || next > numVertices+1 {
			return nil, fmt.Errorf("ccsr: row index run %d (count %d) leaves the %d vertices", i, c, numVertices)
		}
		counts[i] = uint32(next - 1)
	}
	rows := counts[:len(counts)-1]
	if len(rows) > 0 && uint64(rows[len(rows)-1]) >= numVertices {
		return nil, fmt.Errorf("ccsr: row id %d past the %d vertices", rows[len(rows)-1], numVertices)
	}
	for i := range rows {
		if offs[i] >= offs[i+1] || int(offs[i+1]) > len(col) {
			return nil, fmt.Errorf("ccsr: row offsets not increasing within the columns at row %d", rows[i])
		}
		row := col[offs[i]:offs[i+1]]
		for j, w := range row {
			if uint64(w) >= numVertices || (j > 0 && w <= row[j-1]) {
				return nil, fmt.Errorf("ccsr: row %d is not a sorted set of vertices", rows[i])
			}
		}
	}
	return newCSR(rows, offs, col), nil
}

// checkPairs checks what neither side of a cluster can show alone: every
// stored pair (v,w) joins two distinct vertices whose labels are the key's,
// and has its mirror (w,v) — in In for a directed cluster, in Out itself for
// an undirected one. The sides are equally long and free of duplicates
// (readSide, Decode), so that makes In the transpose of Out, an undirected
// Out symmetric, and NumEdges the number of edges EdgesAll visits.
//
// It is one pass, O(pairs): Out is walked row-major, so the pairs ending in
// w arrive in ascending v, which is the order row w of the mirror lists
// them in — the next one must be that row's first unclaimed entry. rowOf is
// scratch, numVertices zeros on entry and on return.
func (s *Store) checkPairs(cl *Cluster, rowOf []uint32) error {
	mirror := cl.FromDst()
	next := slices.Clone(mirror.offs) // next[j]: row j's first unclaimed entry
	for j, w := range mirror.rows {
		rowOf[w] = uint32(j) + 1
	}
	defer func() {
		for _, w := range mirror.rows {
			rowOf[w] = 0
		}
	}()
	for i, v := range cl.Out.rows {
		for _, w := range cl.Out.rowAt(i) {
			j := rowOf[w] // 1 + w's row in the mirror, 0 if it has none
			if v == w || j == 0 || next[j-1] == mirror.offs[j] || mirror.col[next[j-1]] != v ||
				NewKey(s.vertexLabels[v], s.vertexLabels[w], cl.Key.Edge, cl.Key.Directed) != cl.Key {
				return fmt.Errorf("ccsr: cluster %v cannot hold the pair (%d,%d), or lacks its mirror", cl.Key, v, w)
			}
			next[j-1]++
		}
	}
	return nil
}

// Decode reads a store previously written by Encode. The input is not
// trusted: a malformed or hostile stream is an error, never a panic and
// never an allocation out of proportion to its size.
func Decode(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var head struct {
		Magic    [4]byte
		Version  uint32
		Directed bool
		NV, NE   uint64
	}
	if err := binary.Read(br, le, &head); err != nil {
		return nil, fmt.Errorf("ccsr: decode header: %w", err)
	}
	if string(head.Magic[:]) != codecMagic {
		return nil, fmt.Errorf("ccsr: bad magic %q", head.Magic)
	}
	if head.Version != 1 && head.Version != codecVersion {
		return nil, fmt.Errorf("ccsr: unsupported version %d", head.Version)
	}
	if head.NE > maxReasonable {
		return nil, fmt.Errorf("ccsr: implausible edge count %d", head.NE)
	}
	s := &Store{
		directed:  head.Directed,
		numEdges:  int(head.NE),
		labelFreq: make(map[graph.Label]int),
		clusterAt: make(map[Key]int),
		pairIndex: make(map[pairKey][]Key),
	}
	s.touch()
	var err error
	if s.vertexLabels, err = readInts[graph.Label](br, head.NV, "vertex labels"); err != nil {
		return nil, err
	}
	s.numVertices = len(s.vertexLabels)
	for _, l := range s.vertexLabels {
		s.labelFreq[l]++
	}

	var nc uint64
	if err := binary.Read(br, le, &nc); err != nil {
		return nil, err
	}
	rowOf := make([]uint32, s.numVertices) // checkPairs' scratch
	edges := uint64(0)
	for i := uint64(0); i < nc; i++ {
		var h struct {
			Key      Key
			NumEdges uint64
		}
		if err := binary.Read(br, le, &h); err != nil {
			return nil, err
		}
		k := h.Key
		if k.Directed != s.directed || k != NewKey(k.Src, k.Dst, k.Edge, k.Directed) || h.NumEdges > head.NE {
			return nil, fmt.Errorf("ccsr: cluster %v (%d edges) does not belong to this graph", k, h.NumEdges)
		}
		cl := &Cluster{Key: k, NumEdges: int(h.NumEdges)}
		if cl.Out, err = readSide(br, head.NV); err != nil {
			return nil, fmt.Errorf("%w (cluster %v)", err, k)
		}
		stored := uint64(cl.Out.Len()) // orientations stored per side
		if k.Directed {
			if cl.In, err = readSide(br, head.NV); err != nil {
				return nil, fmt.Errorf("%w (cluster %v)", err, k)
			}
			if cl.In.Len() != cl.Out.Len() {
				return nil, fmt.Errorf("ccsr: cluster %v has %d outgoing but %d incoming columns", k, cl.Out.Len(), cl.In.Len())
			}
		} else {
			h.NumEdges *= 2
		}
		if stored != h.NumEdges {
			return nil, fmt.Errorf("ccsr: cluster %v holds %d columns for %d edges", k, stored, cl.NumEdges)
		}
		if err := s.checkPairs(cl, rowOf); err != nil {
			return nil, err
		}
		if s.cluster(k) != nil {
			return nil, fmt.Errorf("ccsr: duplicate cluster %v", k)
		}
		s.appendCluster(&Compressed{Key: k, NumEdges: cl.NumEdges, base: cl})
		edges += uint64(cl.NumEdges)
	}
	if edges != head.NE {
		return nil, fmt.Errorf("ccsr: clusters hold %d edges, header says %d", edges, head.NE)
	}
	if head.Version >= 2 {
		if s.names, err = readNames(br); err != nil {
			return nil, fmt.Errorf("ccsr: decode names: %w", err)
		}
	}
	return s, nil
}

// readNames decodes the label-table trailer, re-interning every name in its
// original order so label values are bit-identical to the encoding graph's.
func readNames(br *bufio.Reader) (*graph.LabelTable, error) {
	if present, err := br.ReadByte(); err != nil || present == 0 {
		return nil, err
	}
	names := graph.NewLabelTable()
	interns := []func(string) int{
		func(name string) int { return int(names.Vertex(name)) },
		func(name string) int { return int(names.Edge(name)) },
	}
	for _, intern := range interns {
		var count uint64
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, err
		}
		for i := uint64(0); i < count; i++ {
			var n uint64
			if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
				return nil, err
			}
			if n > maxReasonable {
				return nil, fmt.Errorf("implausible name length %d", n)
			}
			name, err := io.ReadAll(io.LimitReader(br, int64(n)))
			if err == nil && uint64(len(name)) < n {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return nil, err
			}
			if uint64(intern(string(name))) != i {
				return nil, fmt.Errorf("duplicate label name %q", name)
			}
		}
	}
	return names, nil
}
