package ccsr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU32 := func(x uint32) error { return binary.Write(bw, le, x) }
	writeU64 := func(x uint64) error { return binary.Write(bw, le, x) }

	if err := writeU32(codecVersion); err != nil {
		return err
	}
	dir := byte(0)
	if s.directed {
		dir = 1
	}
	if err := bw.WriteByte(dir); err != nil {
		return err
	}
	if err := writeU64(uint64(s.numVertices)); err != nil {
		return err
	}
	if err := writeU64(uint64(s.numEdges)); err != nil {
		return err
	}
	if err := binary.Write(bw, le, s.vertexLabels); err != nil {
		return err
	}
	keys := s.Keys()
	if err := writeU64(uint64(len(keys))); err != nil {
		return err
	}
	writeSlice := func(xs []uint32) error {
		if err := writeU64(uint64(len(xs))); err != nil {
			return err
		}
		return binary.Write(bw, le, xs)
	}
	writeRLE := func(r rle) error {
		if err := writeU64(uint64(len(r.vals))); err != nil {
			return err
		}
		if err := binary.Write(bw, le, r.vals); err != nil {
			return err
		}
		return binary.Write(bw, le, r.counts)
	}
	for _, k := range keys {
		c := s.cluster(k)
		if err := binary.Write(bw, le, k.Src); err != nil {
			return err
		}
		if err := binary.Write(bw, le, k.Dst); err != nil {
			return err
		}
		if err := binary.Write(bw, le, k.Edge); err != nil {
			return err
		}
		kd := byte(0)
		if k.Directed {
			kd = 1
		}
		if err := bw.WriteByte(kd); err != nil {
			return err
		}
		if err := writeU64(uint64(c.NumEdges)); err != nil {
			return err
		}
		if err := writeRLE(c.outRow); err != nil {
			return err
		}
		if err := writeSlice(c.outCol); err != nil {
			return err
		}
		if k.Directed {
			if err := writeRLE(c.inRow); err != nil {
				return err
			}
			if err := writeSlice(c.inCol); err != nil {
				return err
			}
		}
	}
	if err := writeNames(bw, writeU64, s.names); err != nil {
		return err
	}
	return bw.Flush()
}

// writeNames serializes the label table trailer (presence byte + both
// namespaces in interned order).
func writeNames(bw *bufio.Writer, writeU64 func(uint64) error, names *graph.LabelTable) error {
	if names == nil {
		return bw.WriteByte(0)
	}
	if err := bw.WriteByte(1); err != nil {
		return err
	}
	writeString := func(s string) error {
		if err := writeU64(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeU64(uint64(names.NumVertexLabels())); err != nil {
		return err
	}
	for l := 0; l < names.NumVertexLabels(); l++ {
		if err := writeString(names.VertexName(graph.Label(l))); err != nil {
			return err
		}
	}
	if err := writeU64(uint64(names.NumEdgeLabels())); err != nil {
		return err
	}
	for l := 0; l < names.NumEdgeLabels(); l++ {
		if err := writeString(names.EdgeName(graph.EdgeLabel(l))); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads a store previously written by Encode.
func Decode(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian

	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ccsr: decode magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("ccsr: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, le, &version); err != nil {
		return nil, err
	}
	if version != 1 && version != codecVersion {
		return nil, fmt.Errorf("ccsr: unsupported version %d", version)
	}
	dir, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	var nv, ne uint64
	if err := binary.Read(br, le, &nv); err != nil {
		return nil, err
	}
	if err := binary.Read(br, le, &ne); err != nil {
		return nil, err
	}
	const maxReasonable = 1 << 32
	if nv > maxReasonable || ne > maxReasonable {
		return nil, fmt.Errorf("ccsr: implausible sizes %d/%d", nv, ne)
	}
	s := &Store{
		directed:     dir == 1,
		numVertices:  int(nv),
		numEdges:     int(ne),
		vertexLabels: make([]graph.Label, nv),
		labelFreq:    make(map[graph.Label]int),
		clusterAt:    make(map[Key]int),
		pairIndex:    make(map[pairKey][]Key),
	}
	if err := binary.Read(br, le, s.vertexLabels); err != nil {
		return nil, err
	}
	for _, l := range s.vertexLabels {
		s.labelFreq[l]++
	}

	var nc uint64
	if err := binary.Read(br, le, &nc); err != nil {
		return nil, err
	}
	readSlice := func() ([]uint32, error) {
		var n uint64
		if err := binary.Read(br, le, &n); err != nil {
			return nil, err
		}
		if n > maxReasonable {
			return nil, fmt.Errorf("ccsr: implausible array length %d", n)
		}
		xs := make([]uint32, n)
		if err := binary.Read(br, le, xs); err != nil {
			return nil, err
		}
		return xs, nil
	}
	readRLE := func() (rle, error) {
		var n uint64
		if err := binary.Read(br, le, &n); err != nil {
			return rle{}, err
		}
		if n > maxReasonable {
			return rle{}, fmt.Errorf("ccsr: implausible rle length %d", n)
		}
		r := rle{vals: make([]uint32, n), counts: make([]uint32, n)}
		if err := binary.Read(br, le, r.vals); err != nil {
			return rle{}, err
		}
		if err := binary.Read(br, le, r.counts); err != nil {
			return rle{}, err
		}
		return r, nil
	}
	for i := uint64(0); i < nc; i++ {
		var k Key
		if err := binary.Read(br, le, &k.Src); err != nil {
			return nil, err
		}
		if err := binary.Read(br, le, &k.Dst); err != nil {
			return nil, err
		}
		if err := binary.Read(br, le, &k.Edge); err != nil {
			return nil, err
		}
		kd, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		k.Directed = kd == 1
		var cne uint64
		if err := binary.Read(br, le, &cne); err != nil {
			return nil, err
		}
		c := &Compressed{Key: k, NumEdges: int(cne)}
		if c.outRow, err = readRLE(); err != nil {
			return nil, err
		}
		if c.outCol, err = readSlice(); err != nil {
			return nil, err
		}
		if k.Directed {
			if c.inRow, err = readRLE(); err != nil {
				return nil, err
			}
			if c.inCol, err = readSlice(); err != nil {
				return nil, err
			}
		}
		if s.cluster(k) != nil {
			return nil, fmt.Errorf("ccsr: duplicate cluster %v", k)
		}
		s.appendCluster(c)
	}
	if version >= 2 {
		if s.names, err = readNames(br, le); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// readNames decodes the label-table trailer, re-interning every name in its
// original order so label values are bit-identical to the encoding graph's.
func readNames(br *bufio.Reader, le binary.ByteOrder) (*graph.LabelTable, error) {
	present, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("ccsr: decode names: %w", err)
	}
	if present == 0 {
		return nil, nil
	}
	const maxReasonable = 1 << 32
	readString := func() (string, error) {
		var n uint64
		if err := binary.Read(br, le, &n); err != nil {
			return "", err
		}
		if n > maxReasonable {
			return "", fmt.Errorf("ccsr: implausible name length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	names := graph.NewLabelTable()
	var nv uint64
	if err := binary.Read(br, le, &nv); err != nil {
		return nil, err
	}
	if nv > maxReasonable {
		return nil, fmt.Errorf("ccsr: implausible name count %d", nv)
	}
	for i := uint64(0); i < nv; i++ {
		name, err := readString()
		if err != nil {
			return nil, fmt.Errorf("ccsr: decode vertex name %d: %w", i, err)
		}
		if got := names.Vertex(name); uint64(got) != i {
			return nil, fmt.Errorf("ccsr: duplicate vertex label name %q", name)
		}
	}
	var ne uint64
	if err := binary.Read(br, le, &ne); err != nil {
		return nil, err
	}
	if ne > maxReasonable {
		return nil, fmt.Errorf("ccsr: implausible name count %d", ne)
	}
	for i := uint64(0); i < ne; i++ {
		name, err := readString()
		if err != nil {
			return nil, fmt.Errorf("ccsr: decode edge name %d: %w", i, err)
		}
		if got := names.Edge(name); uint64(got) != i {
			return nil, fmt.Errorf("ccsr: duplicate edge label name %q", name)
		}
	}
	return names, nil
}
