package live

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// maxReadReader records the largest buffer the scanner ever asked it to
// fill — a proxy for the largest allocation a frame header can trigger.
type maxReadReader struct {
	r   io.Reader
	max int
}

func (m *maxReadReader) Read(p []byte) (int, error) {
	if len(p) > m.max {
		m.max = len(p)
	}
	return m.r.Read(p)
}

// fuzzSegment builds a valid segment image from records.
func fuzzSegment(recs ...Record) []byte {
	buf := []byte(segmentMagic)
	for _, r := range recs {
		buf = encodeRecord(buf, r)
	}
	return buf
}

// FuzzSegmentScan throws arbitrary bytes at the one frame scanner and at
// decodeRecord. Whatever the input: no panic; no read buffer beyond
// maxRecordLen; validEnd inside the input; and the records delivered
// re-encode to exactly the bytes before validEnd — so what recovery
// applies is what a writer could have written, and truncating at validEnd
// loses nothing that was delivered. A scan that reports a clean end must
// have consumed everything. The checked-in corpus (testdata/fuzz) holds a
// valid segment, each TestTornTailTruncated tail, a CRC flip, an oversized
// length, and an unknown op.
func FuzzSegmentScan(f *testing.F) {
	f.Add(fuzzSegment(
		Record{Seq: 1, Epoch: 1, Mut: Mutation{Op: OpAddVertex, VertexLabel: 3, LabelName: "C", LabelNamed: true}},
		Record{Seq: 2, Epoch: 1, Mut: Mutation{Op: OpInsertEdge, Src: 9, Dst: 12, EdgeLabel: 5}},
		Record{Seq: 3, Epoch: 2, Mut: Mutation{Op: OpDeleteEdge, Src: 9, Dst: 12, LabelName: "", LabelNamed: true}},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &maxReadReader{r: bytes.NewReader(data)}
		var recs []Record
		validEnd, err := scanSegment(in, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if in.max > maxRecordLen {
			t.Fatalf("scanner asked for a %d-byte read, bound is %d", in.max, maxRecordLen)
		}
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("validEnd %d outside the %d-byte input", validEnd, len(data))
		}
		switch {
		case err == nil:
			if validEnd != int64(len(data)) {
				t.Fatalf("clean end at %d of %d bytes", validEnd, len(data))
			}
		case !errors.Is(err, errTornTail):
			// The only other verdict is a wrong magic, before any record.
			if validEnd != 0 || len(recs) != 0 {
				t.Fatalf("%v with validEnd %d and %d records", err, validEnd, len(recs))
			}
		}
		if validEnd > 0 {
			if again := fuzzSegment(recs...); !bytes.Equal(again, data[:validEnd]) {
				t.Fatalf("delivered records re-encode to %d bytes that differ from the %d valid input bytes", len(again), validEnd)
			}
		} else if len(recs) != 0 {
			t.Fatalf("%d records delivered from an image with no valid prefix", len(recs))
		}

		// decodeRecord on its own: error, or a record whose payload encodes
		// back to the input.
		if rec, err := decodeRecord(data); err == nil {
			if again := encodeRecord(nil, rec)[frameHeaderLen:]; !bytes.Equal(again, data) {
				t.Fatalf("payload %x decodes to %+v which encodes to %x", data, rec, again)
			}
		}
	})
}
