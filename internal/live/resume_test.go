package live

import (
	"context"
	"errors"
	"sync"
	"testing"

	"csce/internal/graph"
)

// replayAll drains a Resume's replay into a slice.
func replayAll(t *testing.T, res *Resume) []Event {
	t.Helper()
	var events []Event
	if err := res.Replay(context.Background(), func(ev Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return events
}

// resumeScript is a deterministic single-mutation-per-batch history on
// pathGraph (seq == batch == epoch), mixing inserts and deletes so both
// deltas and retractions appear in the replayed window.
var resumeScript = []Mutation{
	{Op: OpInsertEdge, Src: 2, Dst: 3}, // seq 1
	{Op: OpInsertEdge, Src: 0, Dst: 3}, // seq 2
	{Op: OpInsertEdge, Src: 0, Dst: 2}, // seq 3
	{Op: OpDeleteEdge, Src: 0, Dst: 1}, // seq 4
	{Op: OpInsertEdge, Src: 0, Dst: 1}, // seq 5
	{Op: OpDeleteEdge, Src: 2, Dst: 3}, // seq 6
	{Op: OpInsertEdge, Src: 1, Dst: 3}, // seq 7
	{Op: OpDeleteEdge, Src: 0, Dst: 2}, // seq 8
}

// runScript applies the script one batch at a time, recording the
// edge-pattern count after every seq (countAt[0] is the initial state).
func runScript(t *testing.T, g *Graph) (countAt []uint64) {
	t.Helper()
	countAt = []uint64{count(t, g, edgePattern, graph.EdgeInduced)}
	for i, m := range resumeScript {
		if _, err := g.Mutate(context.Background(), []Mutation{m}); err != nil {
			t.Fatalf("script seq %d: %v", i+1, err)
		}
		countAt = append(countAt, count(t, g, edgePattern, graph.EdgeInduced))
	}
	return countAt
}

// TestResumeGaplessEquation pins the resume contract: for any retained
// fromSeq, the replayed stream's Σdeltas − Σretractions reproduces the
// live count difference, events arrive in seq order, and every batch is
// closed by a commit marker whose counts match the events before it.
func TestResumeGaplessEquation(t *testing.T) {
	// Retention 5 truncates seqs 1..3: the resume base must roll forward.
	g := newTestGraph(t, pathGraph, Options{WALRetention: 5})
	countAt := runScript(t, g)
	last := uint64(len(resumeScript))

	oldest := g.OldestResumableSeq()
	if oldest != 3 {
		t.Fatalf("oldest resumable %d, want 3 (retention 5 of 8)", oldest)
	}
	for fromSeq := oldest; fromSeq <= last; fromSeq++ {
		res, err := g.ResumeSubscribe(edgePattern, graph.EdgeInduced, fromSeq)
		if err != nil {
			t.Fatalf("resume from %d: %v", fromSeq, err)
		}
		events := replayAll(t, res)
		var sum int64
		var d, r uint64
		prevSeq := fromSeq
		sawCommit := uint64(0)
		for _, ev := range events {
			if ev.Seq < prevSeq {
				t.Fatalf("from %d: seq went backwards: %d after %d", fromSeq, ev.Seq, prevSeq)
			}
			prevSeq = ev.Seq
			switch ev.Kind {
			case EventDelta:
				sum++
				d++
			case EventRetract:
				sum--
				r++
			case EventCommit:
				if ev.Deltas != d || ev.Retractions != r {
					t.Fatalf("from %d: commit at seq %d counts (%d,%d), events say (%d,%d)",
						fromSeq, ev.Seq, ev.Deltas, ev.Retractions, d, r)
				}
				d, r = 0, 0
				if ev.Seq != sawCommit+fromSeq+1 {
					t.Fatalf("from %d: commit markers not gapless: seq %d after %d markers", fromSeq, ev.Seq, sawCommit)
				}
				sawCommit++
			}
		}
		if sawCommit != last-fromSeq {
			t.Fatalf("from %d: %d commit markers, want %d", fromSeq, sawCommit, last-fromSeq)
		}
		want := int64(countAt[last]) - int64(countAt[fromSeq])
		if sum != want {
			t.Fatalf("from %d: Σdeltas−Σretractions = %d, want %d", fromSeq, sum, want)
		}
		res.Live().Close()
	}
	if g.Stats().SubscribersResumed != last-oldest+1 {
		t.Fatalf("resumed counter: %+v", g.Stats())
	}
}

// TestResumeHandoverToLive checks the seam: a commit that lands after
// registration arrives on the live channel with the next seq, never
// replayed, never skipped.
func TestResumeHandoverToLive(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})
	countAt := runScript(t, g)
	last := uint64(len(resumeScript))

	res, err := g.ResumeSubscribe(edgePattern, graph.EdgeInduced, 0)
	if err != nil {
		t.Fatal(err)
	}
	events := replayAll(t, res)
	var sum int64
	for _, ev := range events {
		switch ev.Kind {
		case EventDelta:
			sum++
		case EventRetract:
			sum--
		}
	}
	if got, want := sum, int64(countAt[last])-int64(countAt[0]); got != want {
		t.Fatalf("full replay sum %d, want %d", got, want)
	}

	com, err := g.Mutate(context.Background(), []Mutation{{Op: OpInsertEdge, Src: 0, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if com.FirstSeq != last+1 {
		t.Fatalf("live batch at seq %d, want %d", com.FirstSeq, last+1)
	}
	deadline := 0
	for ev := range res.Live().Events() {
		if ev.Kind == EventCommit {
			if ev.Seq != com.LastSeq || ev.Epoch != com.Epoch {
				t.Fatalf("live commit marker %+v, want seq %d epoch %d", ev, com.LastSeq, com.Epoch)
			}
			break
		}
		if ev.Seq != com.FirstSeq {
			t.Fatalf("live event at seq %d, want %d (no gap, no repeat)", ev.Seq, com.FirstSeq)
		}
		if deadline++; deadline > 1000 {
			t.Fatal("no commit marker")
		}
	}
	res.Live().Close()
}

// TestResumeBoundaries pins the error contract at the edges of the
// retained window: exactly the truncation boundary succeeds, one before is
// ErrSeqTruncated (HTTP 410), past the log is ErrSeqFuture, and the
// vertex-induced variant is refused outright.
func TestResumeBoundaries(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{WALRetention: 4})
	runScript(t, g)
	last := uint64(len(resumeScript))
	oldest := g.OldestResumableSeq()
	if oldest != last-4 {
		t.Fatalf("oldest resumable %d, want %d", oldest, last-4)
	}

	res, err := g.ResumeSubscribe(edgePattern, graph.EdgeInduced, oldest)
	if err != nil {
		t.Fatalf("resume from the exact boundary must work: %v", err)
	}
	replayAll(t, res)
	res.Live().Close()

	if _, err := g.ResumeSubscribe(edgePattern, graph.EdgeInduced, oldest-1); !errors.Is(err, ErrSeqTruncated) {
		t.Fatalf("one before the boundary: %v, want ErrSeqTruncated", err)
	}
	if _, err := g.ResumeSubscribe(edgePattern, graph.EdgeInduced, last+1); !errors.Is(err, ErrSeqFuture) {
		t.Fatalf("past the log: %v, want ErrSeqFuture", err)
	}
	if _, err := g.ResumeSubscribe(edgePattern, graph.VertexInduced, oldest); !errors.Is(err, ErrVertexInduced) {
		t.Fatalf("vertex-induced resume: %v, want ErrVertexInduced", err)
	}

	// A recovered graph rebuilds its resume horizon from the one log: the
	// pre-restart window survives the process, so a subscriber that last
	// saw seq 0 replays the pre-restart batch as if the restart never
	// happened, and the boundary errors stay exact.
	dir := t.TempDir()
	opts := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever}}
	d := openDurable(t, pathGraph, opts)
	com, err := d.Mutate(context.Background(), []Mutation{{Op: OpInsertEdge, Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	r := openDurable(t, pathGraph, opts)
	defer r.Close()
	if rec := r.Recovery(); !rec.ResumeWindowRestored {
		t.Fatalf("recovery did not restore the resume window: %+v", rec)
	}
	if got := r.OldestResumableSeq(); got != 0 {
		t.Fatalf("post-recovery resume boundary %d, want 0 (persisted window)", got)
	}
	res2, err := r.ResumeSubscribe(edgePattern, graph.EdgeInduced, 0)
	if err != nil {
		t.Fatalf("resume across the restart: %v", err)
	}
	events := replayAll(t, res2)
	if len(events) == 0 || events[len(events)-1].Kind != EventCommit || events[len(events)-1].Seq != com.LastSeq {
		t.Fatalf("restored replay must cover the pre-restart batch, got %+v", events)
	}
	res2.Live().Close()
	res3, err := r.ResumeSubscribe(edgePattern, graph.EdgeInduced, com.LastSeq)
	if err != nil {
		t.Fatalf("resume at the recovered seq: %v", err)
	}
	if events := replayAll(t, res3); len(events) != 0 {
		t.Fatalf("nothing to replay at the boundary, got %d events", len(events))
	}
	res3.Live().Close()
	if _, err := r.ResumeSubscribe(edgePattern, graph.EdgeInduced, com.LastSeq+1); !errors.Is(err, ErrSeqFuture) {
		t.Fatalf("past the recovered log: %v, want ErrSeqFuture", err)
	}
}

// TestResumeReplayOnce pins the once-only contract.
func TestResumeReplayOnce(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})
	res, err := g.ResumeSubscribe(edgePattern, graph.EdgeInduced, 0)
	if err != nil {
		t.Fatal(err)
	}
	discard := func(Event) error { return nil }
	if err := res.Replay(context.Background(), discard); err != nil {
		t.Fatal(err)
	}
	if err := res.Replay(context.Background(), discard); err == nil {
		t.Fatal("second Replay must fail")
	}
}

// TestLiveRetractionEquation pins retraction delivery on a plain live
// subscription: deleting an edge streams one retract event per destroyed
// embedding, and count(after) = count(before) + Deltas − Retractions.
func TestLiveRetractionEquation(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})
	before := count(t, g, edgePattern, graph.EdgeInduced)
	sub, err := g.Subscribe(edgePattern, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	com, err := g.Mutate(context.Background(), []Mutation{
		{Op: OpInsertEdge, Src: 2, Dst: 3},
		{Op: OpDeleteEdge, Src: 0, Dst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if com.Deltas != 2 || com.Retractions != 2 {
		t.Fatalf("commit counted deltas=%d retractions=%d, want 2/2", com.Deltas, com.Retractions)
	}
	var d, r uint64
	for ev := range sub.Events() {
		switch ev.Kind {
		case EventDelta:
			d++
		case EventRetract:
			r++
		case EventCommit:
			if ev.Deltas != d || ev.Retractions != r {
				t.Fatalf("marker (%d,%d) after events (%d,%d)", ev.Deltas, ev.Retractions, d, r)
			}
			after := count(t, g, edgePattern, graph.EdgeInduced)
			if after != before+d-r {
				t.Fatalf("count %d != %d + %d − %d", after, before, d, r)
			}
			sub.Close()
			return
		}
	}
	t.Fatal("stream closed without a commit marker")
}

// TestConcurrentCommitAndResume hammers ResumeSubscribe+Replay against a
// live mutation storm; run under -race this pins that the resume path
// (base clone, tail capture, raw replays) never touches shared state
// without the right lock.
func TestConcurrentCommitAndResume(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{WALRetention: 64, SubscriberBuffer: 4096})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := Mutation{Op: OpInsertEdge, Src: 2, Dst: 3}
			if i%2 == 1 {
				m.Op = OpDeleteEdge
			}
			if _, err := g.Mutate(context.Background(), []Mutation{m}); err != nil {
				t.Errorf("storm batch %d: %v", i, err)
				return
			}
		}
	}()

	for k := 0; k < 25; k++ {
		from := g.OldestResumableSeq()
		res, err := g.ResumeSubscribe(edgePattern, graph.EdgeInduced, from)
		if errors.Is(err, ErrSeqTruncated) {
			k-- // the storm truncated past from between the two calls; ask again
			continue
		}
		if err != nil {
			t.Fatalf("resume %d from %d: %v", k, from, err)
		}
		prevSeq := from
		if err := res.Replay(context.Background(), func(ev Event) error {
			if ev.Seq < prevSeq {
				return errors.New("seq went backwards")
			}
			prevSeq = ev.Seq
			return nil
		}); err != nil {
			t.Fatalf("resume %d replay: %v", k, err)
		}
		res.Live().Close()
	}
	close(stop)
	wg.Wait()
}
