package live

import (
	"context"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"

	"csce/internal/core"
	"csce/internal/graph"
)

// Disk-fault drills for diskWAL.append: each test makes one commit fail (or
// nearly fail) the way a sick disk would, keeps committing, and then proves
// that close + Open recovers every acknowledged batch and nothing else.

// reopenExpect reopens the directory of opts and requires a clean recovery
// at wantSeq with the given edge-pattern count.
func reopenExpect(t *testing.T, opts Options, wantSeq, wantCount uint64) {
	t.Helper()
	gr := graph.MustParse(pathGraph)
	r, err := Open("dur", core.NewEngine(gr), opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if rec := r.Recovery(); rec.RecoveredSeq != wantSeq || rec.TornTail {
		t.Fatalf("recovered %+v, want a clean log ending at seq %d", rec, wantSeq)
	}
	if got := count(t, r, edgePattern, graph.EdgeInduced); got != wantCount {
		t.Fatalf("recovered count %d, want %d", got, wantCount)
	}
}

// faultOpts is the shape the drills share: fsync on every commit, so the
// append's write and its sync are both on the path.
func faultOpts(dir string) Options {
	return Options{Durability: Durability{Dir: dir, Fsync: FsyncAlways}}
}

// TestAppendRolledBackAfterPartialWrite lets the kernel cut a batch's
// write(2) short: the file-size limit sits a few bytes past the segment's
// end, so part of the frame lands and the rest is refused (EFBIG). The
// append must cut those bytes away again. Left in place they are a torn
// frame mid-segment: the next commit reuses the seq behind it, and a
// restart "truncates the torn tail" — silently dropping every batch
// acknowledged after the fault.
func TestAppendRolledBackAfterPartialWrite(t *testing.T) {
	dir := t.TempDir()
	opts := faultOpts(dir)
	g := openDurable(t, pathGraph, opts)
	ctx := context.Background()
	if _, err := g.Mutate(ctx, []Mutation{resumeScript[0]}); err != nil {
		t.Fatal(err)
	}

	// Without this the refused write also raises SIGXFSZ, which kills.
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	_, size, _, _ := g.dwal.diskStats()
	limit := syscall.Rlimit{Cur: uint64(size) + 5, Max: old.Max}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Fatal(err)
	}
	_, err := g.Mutate(ctx, []Mutation{resumeScript[1]})
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("a commit whose write was cut short must be refused")
	}
	if _, after, _, _ := g.dwal.diskStats(); after != size {
		t.Fatalf("refused append left the segment at %d bytes, want %d", after, size)
	}
	if fi, err := os.Stat(lastSegment(t, dir)); err != nil || fi.Size() != size {
		t.Fatalf("refused append left %d bytes on disk, want %d (%v)", fi.Size(), size, err)
	}

	// The disk recovered: the same seq commits, and so does the next one.
	var last Commit
	for _, m := range resumeScript[1:3] {
		if last, err = g.Mutate(ctx, []Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	if last.LastSeq != 3 {
		t.Fatalf("seqs after the refused commit: %+v, want the refused seq reused", last)
	}
	wantCount := count(t, g, edgePattern, graph.EdgeInduced)
	g.Close()
	reopenExpect(t, opts, last.LastSeq, wantCount)
}

// TestAppendLatchesWhenRollbackFails swaps the active segment for a
// read-only handle of the same file: the write is refused and so is the
// truncate that would undo it, so the log can no longer promise what the
// segment holds. It must latch shut — every later commit refused with the
// cause, even once the handle works again — rather than append behind
// bytes of unknown fate.
func TestAppendLatchesWhenRollbackFails(t *testing.T) {
	dir := t.TempDir()
	opts := faultOpts(dir)
	g := openDurable(t, pathGraph, opts)
	ctx := context.Background()
	acked, err := g.Mutate(ctx, []Mutation{resumeScript[0]})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := count(t, g, edgePattern, graph.EdgeInduced)

	ro, err := os.Open(lastSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	g.dwal.mu.Lock()
	good := g.dwal.cur
	g.dwal.cur = ro
	g.dwal.mu.Unlock()
	if _, err := g.Mutate(ctx, []Mutation{resumeScript[1]}); err == nil {
		t.Fatal("a commit the disk refused must fail")
	}
	g.dwal.mu.Lock()
	g.dwal.cur = good
	g.dwal.mu.Unlock()
	for i := 0; i < 2; i++ {
		if _, err := g.Mutate(ctx, []Mutation{resumeScript[1]}); err == nil || !strings.Contains(err.Error(), "latched shut") {
			t.Fatalf("commit %d after a failed rollback: %v, want the latch error", i, err)
		}
	}
	if st := g.Stats(); st.LastSeq != acked.LastSeq || st.BatchesFailed != 3 {
		t.Fatalf("latched log moved: %+v", st)
	}
	g.Close()
	reopenExpect(t, opts, acked.LastSeq, wantCount)
}

// TestRotationFailureAfterDurableWrite blocks the rotation that follows a
// durable batch (the next segment's name is taken). That commit must still
// be acknowledged — its records are on disk and a restart would resurrect
// them — and the rotation is retried by the next append, which is refused
// while the obstacle stands (nothing of it is on disk yet) and goes
// through once it is gone.
func TestRotationFailureAfterDurableWrite(t *testing.T) {
	dir := t.TempDir()
	opts := faultOpts(dir)
	opts.Durability.SegmentSize = 1 // every batch fills its segment
	opts.Durability.KeepSegments = 100
	g := openDurable(t, pathGraph, opts)
	ctx := context.Background()

	obstacle := segmentPath(dir, 2)
	if err := os.WriteFile(obstacle, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	first, err := g.Mutate(ctx, []Mutation{resumeScript[0]})
	if err != nil {
		t.Fatalf("a durable batch must not fail because the rotation after it did: %v", err)
	}
	if _, err := g.Mutate(ctx, []Mutation{resumeScript[1]}); err == nil || !strings.Contains(err.Error(), "wal rotate") {
		t.Fatalf("commit behind a still-blocked rotation: %v, want a loud refusal", err)
	}
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	second, err := g.Mutate(ctx, []Mutation{resumeScript[1]})
	if err != nil {
		t.Fatal(err)
	}
	if second.FirstSeq != first.LastSeq+1 {
		t.Fatalf("seq %d after the retried rotation, want %d", second.FirstSeq, first.LastSeq+1)
	}
	if st := g.Stats(); st.WALDiskSegments != 3 {
		t.Fatalf("the retried rotation did not seal the full segment: %+v", st)
	}
	wantCount := count(t, g, edgePattern, graph.EdgeInduced)
	g.Close()
	reopenExpect(t, opts, second.LastSeq, wantCount)
}
