package live

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csce/internal/core"
	"csce/internal/graph"
)

// openDurable builds a live graph backed by a WAL directory, from a fresh
// engine parsed from text — the same way a restarted daemon reloads the
// base graph file before recovery replays the log on top.
func openDurable(t *testing.T, text string, opts Options) *Graph {
	t.Helper()
	g := graph.MustParse(text)
	lg, err := Open("dur", core.NewEngine(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// TestDurableRecoveryRoundTrip pins the basic crash contract: close a
// durable graph, reopen the same directory with a fresh base engine, and
// the graph comes back at the exact committed seq, epoch, and counts —
// including labels minted at runtime, which survive by name.
func TestDurableRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever}}

	g := openDurable(t, pathGraph, opts)
	if rec := g.Recovery(); rec.RecoveredSeq != 0 || rec.ReplayedRecords != 0 || rec.HasCheckpoint || rec.TornTail {
		t.Fatalf("empty-dir recovery not pristine: %+v", rec)
	}
	ctx := context.Background()
	if _, err := g.Mutate(ctx, []Mutation{
		{Op: OpInsertEdge, Src: 2, Dst: 3},
		{Op: OpInsertEdge, Src: 0, Dst: 3},
	}); err != nil {
		t.Fatal(err)
	}
	// Mint a label the base graph file does not know: two C vertices and
	// an edge between them. Only the name makes their identity durable.
	cLabel := g.Names().Vertex("C")
	com, err := g.Mutate(ctx, []Mutation{
		{Op: OpAddVertex, VertexLabel: cLabel, LabelName: "C", LabelNamed: true},
		{Op: OpAddVertex, VertexLabel: cLabel, LabelName: "C", LabelNamed: true},
		{Op: OpInsertEdge, Src: 4, Dst: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := count(t, g, edgePattern, graph.EdgeInduced)
	g.Close()

	r := openDurable(t, pathGraph, opts)
	defer r.Close()
	rec := r.Recovery()
	if rec.RecoveredSeq != com.LastSeq || rec.RecoveredEpoch != com.Epoch {
		t.Fatalf("recovered at seq %d epoch %d, want %d/%d", rec.RecoveredSeq, rec.RecoveredEpoch, com.LastSeq, com.Epoch)
	}
	if rec.ReplayedRecords != 5 || rec.HasCheckpoint || rec.TornTail {
		t.Fatalf("recovery shape: %+v", rec)
	}
	if got := count(t, r, edgePattern, graph.EdgeInduced); got != wantCount {
		t.Fatalf("recovered count %d, want %d", got, wantCount)
	}
	cc, err := graph.ParseStringWith("t undirected\nv 0 C\nv 1 C\ne 0 1\n", r.Names())
	if err != nil {
		t.Fatal(err)
	}
	if got := count(t, r, cc, graph.EdgeInduced); got != 2 {
		t.Fatalf("runtime-minted label C lost across restart: C-C count %d, want 2", got)
	}

	// The log keeps extending gapless after recovery.
	com2, err := r.Mutate(ctx, []Mutation{{Op: OpInsertEdge, Src: 1, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if com2.FirstSeq != com.LastSeq+1 || com2.Epoch != com.Epoch+1 {
		t.Fatalf("post-recovery commit %+v, want seq %d epoch %d", com2, com.LastSeq+1, com.Epoch+1)
	}
}

// TestDurableCheckpointAndRotation forces rotation on every batch and a
// tight retention so checkpoints must fire, then verifies a restart loads
// the checkpoint and replays only the uncovered suffix. The resume window
// is one record, so the resumable-from watermark — where checkpoints are
// taken — trails the head by one sealed segment.
func TestDurableCheckpointAndRotation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{WALRetention: 1, Durability: Durability{
		Dir:          dir,
		Fsync:        FsyncNever,
		SegmentSize:  1, // every batch seals its segment
		KeepSegments: 2,
	}}
	g := openDurable(t, pathGraph, opts)
	ctx := context.Background()
	var last Commit
	for i := 0; i < 8; i++ {
		m := Mutation{Op: OpInsertEdge, Src: 2, Dst: 3}
		if i%2 == 1 {
			m.Op = OpDeleteEdge
		}
		com, err := g.Mutate(ctx, []Mutation{m})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		last = com
	}
	st := g.Stats()
	if st.WALCheckpoints == 0 {
		t.Fatalf("no checkpoint fired: %+v", st)
	}
	if st.WALDiskSegments > opts.Durability.KeepSegments+2 {
		t.Fatalf("truncation did not keep up: %d segments on disk", st.WALDiskSegments)
	}
	wantCount := count(t, g, edgePattern, graph.EdgeInduced)
	g.Close()

	r := openDurable(t, pathGraph, opts)
	defer r.Close()
	rec := r.Recovery()
	if !rec.HasCheckpoint {
		t.Fatalf("recovery ignored the checkpoint: %+v", rec)
	}
	if rec.RecoveredSeq != last.LastSeq || rec.RecoveredEpoch != last.Epoch {
		t.Fatalf("recovered at %d/%d, want %d/%d", rec.RecoveredSeq, rec.RecoveredEpoch, last.LastSeq, last.Epoch)
	}
	if rec.ReplayedRecords >= 8 {
		t.Fatalf("checkpoint saved nothing: replayed %d of 8 records", rec.ReplayedRecords)
	}
	if got := count(t, r, edgePattern, graph.EdgeInduced); got != wantCount {
		t.Fatalf("recovered count %d, want %d", got, wantCount)
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return matches[len(matches)-1] // names sort by first seq
}

// TestTornTailTruncated damages the final segment the way a crash does —
// a partial frame, a zero-length frame header, a lone byte, and a segment
// the crash created but never wrote a header into — and expects recovery
// to cut back to the last whole record and carry on: the next commit must
// land behind a valid header, so the directory still opens one run later.
func TestTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail []byte
		// headerless replaces appending tail: rotate after the batch, then
		// empty the fresh segment (a kill between create and header write).
		headerless bool
	}{
		{name: "partial payload", tail: append([]byte{40, 0, 0, 0, 1, 2, 3, 4}, make([]byte, 10)...)},
		{name: "zero-length frame", tail: make([]byte, frameHeaderLen)},
		{name: "lone garbage byte", tail: []byte{0xFF}},
		{name: "header-less final segment", headerless: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever}}
			if tc.headerless {
				opts.Durability.SegmentSize = 1
				opts.Durability.KeepSegments = 100
			}
			g := openDurable(t, pathGraph, opts)
			com, err := g.Mutate(context.Background(), []Mutation{{Op: OpInsertEdge, Src: 2, Dst: 3}})
			if err != nil {
				t.Fatal(err)
			}
			wantCount := count(t, g, edgePattern, graph.EdgeInduced)
			g.Close()

			seg := lastSegment(t, dir)
			if tc.headerless {
				if err := os.Truncate(seg, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(tc.tail); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			r := openDurable(t, pathGraph, opts)
			rec := r.Recovery()
			if !rec.TornTail {
				t.Fatalf("torn tail not detected: %+v", rec)
			}
			if rec.RecoveredSeq != com.LastSeq {
				t.Fatalf("recovered seq %d, want %d", rec.RecoveredSeq, com.LastSeq)
			}
			if got := count(t, r, edgePattern, graph.EdgeInduced); got != wantCount {
				t.Fatalf("recovered count %d, want %d", got, wantCount)
			}
			// The truncated segment accepts appends again.
			com2, err := r.Mutate(context.Background(), []Mutation{{Op: OpInsertEdge, Src: 0, Dst: 3}})
			if err != nil {
				t.Fatal(err)
			}
			if com2.FirstSeq != com.LastSeq+1 {
				t.Fatalf("post-truncation seq %d, want %d", com2.FirstSeq, com.LastSeq+1)
			}
			wantCount = count(t, r, edgePattern, graph.EdgeInduced)
			r.Close()

			// And what it appended is readable: a second restart recovers
			// the post-truncation commit too.
			r2 := openDurable(t, pathGraph, opts)
			defer r2.Close()
			if rec := r2.Recovery(); rec.TornTail || rec.RecoveredSeq != com2.LastSeq {
				t.Fatalf("second recovery: %+v, want clean at seq %d", rec, com2.LastSeq)
			}
			if got := count(t, r2, edgePattern, graph.EdgeInduced); got != wantCount {
				t.Fatalf("second recovery count %d, want %d", got, wantCount)
			}
		})
	}
}

// TestCRCCorruptionMidLogRefused flips a payload byte in a NON-final
// segment: that cannot be a crash tail, so recovery must refuse rather
// than resurrect a gapped history.
func TestCRCCorruptionMidLogRefused(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Durability: Durability{
		Dir:          dir,
		Fsync:        FsyncNever,
		SegmentSize:  1,   // rotate every batch: several segments
		KeepSegments: 100, // never checkpoint them away
	}}
	g := openDurable(t, pathGraph, opts)
	for i, m := range []Mutation{
		{Op: OpInsertEdge, Src: 2, Dst: 3},
		{Op: OpInsertEdge, Src: 0, Dst: 3},
		{Op: OpInsertEdge, Src: 0, Dst: 2},
	} {
		if _, err := g.Mutate(context.Background(), []Mutation{m}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	g.Close()

	matches, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil || len(matches) < 2 {
		t.Fatalf("need >= 2 segments, got %v (%v)", matches, err)
	}
	first := matches[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // payload byte of the segment's last record
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	gr := graph.MustParse(pathGraph)
	if _, err := Open("dur", core.NewEngine(gr), opts); err == nil {
		t.Fatal("mid-log corruption must fail recovery")
	} else if !strings.Contains(err.Error(), "corrupt mid-log") {
		t.Fatalf("unexpected recovery error: %v", err)
	}
}

// TestRecordEncodingRoundTrip pins the frame format, in particular the
// biased name field: "no name" and "interned empty name" are different
// records and must decode back as such.
func TestRecordEncodingRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Epoch: 1, Mut: Mutation{Op: OpAddVertex, VertexLabel: 7}},
		{Seq: 2, Epoch: 1, Mut: Mutation{Op: OpAddVertex, VertexLabel: 3, LabelName: "", LabelNamed: true}},
		{Seq: 3, Epoch: 2, Mut: Mutation{Op: OpInsertEdge, Src: 9, Dst: 12, EdgeLabel: 5, LabelName: "likes", LabelNamed: true}},
		{Seq: 4, Epoch: 3, Mut: Mutation{Op: OpDeleteEdge, Src: 12, Dst: 9, EdgeLabel: 5}},
	}
	var buf []byte
	for _, r := range recs {
		buf = encodeRecord(buf, r)
	}
	for i, want := range recs {
		length := int(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
		payload := buf[frameHeaderLen : frameHeaderLen+length]
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d round-trip:\n got %+v\nwant %+v", i, got, want)
		}
		buf = buf[frameHeaderLen+length:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

// TestFsyncPolicies exercises the always and never policies end to end
// (the crash semantics differ, the data path must not) and the flag
// spellings; the removed interval policy must not parse.
func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		if parsed, err := ParseFsyncPolicy(pol.String()); err != nil || parsed != pol {
			t.Fatalf("policy %v round-trip: %v %v", pol, parsed, err)
		}
		dir := t.TempDir()
		opts := Options{Durability: Durability{Dir: dir, Fsync: pol}}
		g := openDurable(t, pathGraph, opts)
		if _, err := g.Mutate(context.Background(), []Mutation{{Op: OpInsertEdge, Src: 2, Dst: 3}}); err != nil {
			t.Fatal(err)
		}
		if pol == FsyncAlways && g.Stats().WALFsyncs == 0 {
			t.Fatal("FsyncAlways did not sync on commit")
		}
		g.Close()
		r := openDurable(t, pathGraph, opts)
		if rec := r.Recovery(); rec.RecoveredSeq != 1 {
			t.Fatalf("policy %v: recovered seq %d, want 1", pol, rec.RecoveredSeq)
		}
		r.Close()
	}
	for _, bad := range []string{"sometimes", "interval"} {
		if _, err := ParseFsyncPolicy(bad); err == nil {
			t.Fatalf("policy spelling %q must error", bad)
		}
	}
}
