package live

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"csce/internal/core"
	"csce/internal/graph"
)

// runScriptDurable applies the first n mutations of resumeScript to a
// durable graph, one batch per seq, and returns the per-seq counts like
// runScript.
func runScriptDurable(t *testing.T, g *Graph, n int) (countAt []uint64) {
	t.Helper()
	countAt = []uint64{count(t, g, edgePattern, graph.EdgeInduced)}
	for i, m := range resumeScript[:n] {
		if _, err := g.Mutate(context.Background(), []Mutation{m}); err != nil {
			t.Fatalf("script seq %d: %v", i+1, err)
		}
		countAt = append(countAt, count(t, g, edgePattern, graph.EdgeInduced))
	}
	return countAt
}

// eventTrace flattens a replayed stream into a comparable shape: one line
// per event carrying everything a subscriber acts on.
func eventTrace(events []Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = fmt.Sprintf("%d/%d kind=%d %d-%d(%d) emb=%v d=%d r=%d",
			ev.Seq, ev.Epoch, ev.Kind, ev.Src, ev.Dst, ev.EdgeLabel, ev.Embedding, ev.Deltas, ev.Retractions)
	}
	return out
}

// replayEvents resumes from fromSeq and drains the replay.
func replayEvents(t *testing.T, g *Graph, fromSeq uint64) []Event {
	t.Helper()
	res, err := g.ResumeSubscribe(edgePattern, graph.EdgeInduced, fromSeq)
	if err != nil {
		t.Fatalf("resume from %d: %v", fromSeq, err)
	}
	defer res.Live().Close()
	return replayAll(t, res)
}

// sumEvents folds a stream into Σdeltas − Σretractions.
func sumEvents(events []Event) (sum int64) {
	for _, ev := range events {
		switch ev.Kind {
		case EventDelta:
			sum++
		case EventRetract:
			sum--
		}
	}
	return sum
}

// requireSameReplays resumes r from every seq in [oldest, last] and
// requires each stream to be event-for-event identical to the one the
// pre-restart process served for the same from_seq.
func requireSameReplays(t *testing.T, r *Graph, before map[uint64][]string, oldest, last uint64) {
	t.Helper()
	for from := oldest; from <= last; from++ {
		after := eventTrace(replayEvents(t, r, from))
		if len(after) != len(before[from]) {
			t.Fatalf("from %d: %d events after restart, %d before", from, len(after), len(before[from]))
		}
		for i := range after {
			if after[i] != before[from][i] {
				t.Fatalf("from %d event %d diverged across restart:\n before %s\n after  %s",
					from, i, before[from][i], after[i])
			}
		}
	}
}

// TestResumeReplayEquivalenceAcrossRestart pins the resume contract on the
// one log: for every retained from_seq, the replayed stream after
// close+reopen is event-for-event identical to the stream the pre-restart
// process served.
func TestResumeReplayEquivalenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever}}
	g := openDurable(t, pathGraph, opts)
	runScriptDurable(t, g, len(resumeScript))
	last := uint64(len(resumeScript))

	before := make(map[uint64][]string)
	for from := uint64(0); from <= last; from++ {
		before[from] = eventTrace(replayEvents(t, g, from))
	}
	g.Close()

	r := openDurable(t, pathGraph, opts)
	defer r.Close()
	if rec := r.Recovery(); !rec.ResumeWindowRestored || rec.ResumeRecords != len(resumeScript) {
		t.Fatalf("window not restored: %+v", rec)
	}
	if got := r.OldestResumableSeq(); got != 0 {
		t.Fatalf("restored boundary %d, want 0", got)
	}
	requireSameReplays(t, r, before, 0, last)
}

// TestResumeAcrossRestartAfterTruncation is the same contract once the log
// has been truncated: more records than the resume window holds, spread
// over enough segments that a checkpoint has deleted some. The process is
// killed (abandoned without Close), and the restart must come back with
// the same oldest resumable seq — the checkpoint it loads was taken at
// that watermark or below it — and identical replays from there on.
func TestResumeAcrossRestartAfterTruncation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		WALRetention: 4,
		Durability:   Durability{Dir: dir, Fsync: FsyncNever, SegmentSize: 1, KeepSegments: 2},
	}
	g := openDurable(t, pathGraph, opts)
	t.Cleanup(g.Close) // releases the abandoned handle once the test is over
	runScriptDurable(t, g, len(resumeScript))
	last := uint64(len(resumeScript))
	if st := g.Stats(); st.WALCheckpoints == 0 {
		t.Fatalf("no checkpoint fired: %+v", st)
	}
	if _, err := os.Stat(segmentPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the checkpoint deleted nothing: segment 1 still there (%v)", err)
	}
	oldest := g.OldestResumableSeq()
	if oldest != last-uint64(opts.WALRetention) {
		t.Fatalf("oldest resumable %d, want %d", oldest, last-uint64(opts.WALRetention))
	}
	before := make(map[uint64][]string)
	for from := oldest; from <= last; from++ {
		before[from] = eventTrace(replayEvents(t, g, from))
	}

	r := openDurable(t, pathGraph, opts)
	defer r.Close()
	rec := r.Recovery()
	if !rec.HasCheckpoint || rec.CheckpointSeq > oldest {
		t.Fatalf("checkpoint must sit at or below the resumable-from watermark %d: %+v", oldest, rec)
	}
	if got := r.OldestResumableSeq(); got != oldest || rec.ResumeOldestSeq != oldest {
		t.Fatalf("oldest resumable %d (recovery says %d) after restart, %d before", got, rec.ResumeOldestSeq, oldest)
	}
	requireSameReplays(t, r, before, oldest, last)
	if _, err := r.ResumeSubscribe(edgePattern, graph.EdgeInduced, oldest-1); !errors.Is(err, ErrSeqTruncated) {
		t.Fatalf("before the restored boundary: %v, want ErrSeqTruncated", err)
	}
	if _, err := r.ResumeSubscribe(edgePattern, graph.EdgeInduced, last+1); !errors.Is(err, ErrSeqFuture) {
		t.Fatalf("past the restored log: %v, want ErrSeqFuture", err)
	}
}

// TestResumeWindowSurvivesTornTail crashes the log mid-frame: the torn
// tail is cut away and the window still reaches from seq 0 to the
// recovered seq, because window and data are the same records.
func TestResumeWindowSurvivesTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"partial frame", append([]byte{40, 0, 0, 0, 9, 9, 9, 9}, make([]byte, 10)...)},
		{"lone garbage byte", []byte{0xFF}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever}}
			g := openDurable(t, pathGraph, opts)
			countAt := runScriptDurable(t, g, len(resumeScript))
			last := uint64(len(resumeScript))
			g.Close()

			f, err := os.OpenFile(lastSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			r := openDurable(t, pathGraph, opts)
			defer r.Close()
			rec := r.Recovery()
			if !rec.TornTail || !rec.ResumeWindowRestored || rec.RecoveredSeq != last {
				t.Fatalf("window must survive a crash tail: %+v", rec)
			}
			if sum, want := sumEvents(replayEvents(t, r, 0)), int64(countAt[last])-int64(countAt[0]); sum != want {
				t.Fatalf("replay sum %d, want %d", sum, want)
			}
		})
	}
}

// TestUpgradeFromChainAndResumeLayout opens a directory laid out the way
// the previous release left it under -checkpoint-mode incremental: a base
// checkpoint, two NNN.inc chain files, one live segment, and a populated
// resume/ directory. Open must normalize it in one shot — chain files are
// sealed segments under another name, resume/ is redundant — recover the
// exact seq/epoch/count, leave only checkpoint + *.wal behind, and keep
// committing gaplessly.
func TestUpgradeFromChainAndResumeLayout(t *testing.T) {
	dir := t.TempDir()
	const n, ckSeq = 6, 3
	// One single-record segment per seq, nothing checkpointed away.
	build := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever, SegmentSize: 1, KeepSegments: 100}}
	g := openDurable(t, pathGraph, build)
	countAt := runScriptDurable(t, g, n)
	g.Close()
	// The base checkpoint: the state at ckSeq, written in the unchanged
	// CSCECKP1 format.
	mem := newTestGraph(t, pathGraph, Options{})
	for _, m := range resumeScript[:ckSeq] {
		if _, err := mem.Mutate(context.Background(), []Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	snap := mem.Acquire()
	if err := (&diskWAL{dir: dir}).checkpoint(snap.Store().Clone(), ckSeq, ckSeq); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	for seq := uint64(1); seq <= n+1; seq++ {
		path := segmentPath(dir, seq)
		var err error
		switch {
		case seq <= ckSeq || seq == n+1: // covered by the base / the empty active segment
			err = os.Remove(path)
		case seq < n: // the chain
			err = os.Rename(path, path[:len(path)-len(segmentSuffix)]+".inc")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "resume"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "resume", "00000000000000000001.rlog"), []byte("CSCERSL1 stale window"), 0o644); err != nil {
		t.Fatal(err)
	}

	opts := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever}}
	r := openDurable(t, pathGraph, opts)
	rec := r.Recovery()
	if !rec.UpgradedLayout || !rec.HasCheckpoint || rec.CheckpointSeq != ckSeq {
		t.Fatalf("upgrade recovery: %+v", rec)
	}
	if rec.RecoveredSeq != n || rec.RecoveredEpoch != n || rec.ReplayedRecords != n-ckSeq {
		t.Fatalf("recovered %+v, want seq/epoch %d after %d records", rec, n, n-ckSeq)
	}
	if got := count(t, r, edgePattern, graph.EdgeInduced); got != countAt[n] {
		t.Fatalf("recovered count %d, want %d", got, countAt[n])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{
		filepath.Base(segmentPath(dir, 4)), filepath.Base(segmentPath(dir, 5)),
		filepath.Base(segmentPath(dir, 6)), checkpointName,
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("directory after upgrade: %v, want %v", names, want)
	}
	com, err := r.Mutate(context.Background(), []Mutation{resumeScript[n]})
	if err != nil {
		t.Fatal(err)
	}
	if com.FirstSeq != n+1 || com.Epoch != n+1 {
		t.Fatalf("post-upgrade commit %+v, want seq/epoch %d", com, n+1)
	}
	r.Close()

	r2 := openDurable(t, pathGraph, opts)
	defer r2.Close()
	if rec := r2.Recovery(); rec.UpgradedLayout || rec.RecoveredSeq != n+1 {
		t.Fatalf("second open: %+v, want a plain recovery at seq %d", rec, n+1)
	}
}

// TestLogNotReachingCheckpointRefused removes the oldest segment of a log
// that has no checkpoint to stand in for it: the first record recovery
// finds is not the one after the base state, and applying the rest on top
// would build a state that never existed. Open must refuse.
func TestLogNotReachingCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever, SegmentSize: 1, KeepSegments: 100}}
	g := openDurable(t, pathGraph, opts)
	runScriptDurable(t, g, 3)
	g.Close()
	if err := os.Remove(segmentPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("dur", core.NewEngine(graph.MustParse(pathGraph)), opts); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("a log that starts past the base state must be refused, got: %v", err)
	}
}
