package live

import (
	"context"
	"strings"
	"sync"
	"testing"

	"csce/internal/core"
	"csce/internal/graph"
)

func newTestGraph(t *testing.T, text string, opts Options) *Graph {
	t.Helper()
	g := graph.MustParse(text)
	lg := NewGraph("test", core.NewEngine(g), opts)
	t.Cleanup(lg.Close)
	return lg
}

const pathGraph = "t undirected\nv 0 A\nv 1 A\nv 2 A\nv 3 A\ne 0 1\ne 1 2\n"

var (
	edgePattern = graph.MustParse("t undirected\nv 0 A\nv 1 A\ne 0 1\n")
	triPattern  = graph.MustParse("t undirected\nv 0 A\nv 1 A\nv 2 A\ne 0 1\ne 1 2\ne 0 2\n")
)

func count(t *testing.T, g *Graph, p *graph.Graph, v graph.Variant) uint64 {
	t.Helper()
	snap := g.Acquire()
	defer snap.Release()
	n, err := snap.Engine().Count(p, v)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestMutateAssignsContiguousSeqs pins the WAL contract: 1-based, gapless
// across batches, shared epoch per batch, retention by truncation only.
func TestMutateAssignsContiguousSeqs(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{WALRetention: 3})

	com, err := g.Mutate(context.Background(), []Mutation{
		{Op: OpInsertEdge, Src: 2, Dst: 3},
		{Op: OpInsertEdge, Src: 0, Dst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if com.FirstSeq != 1 || com.LastSeq != 2 || com.Epoch != 1 {
		t.Fatalf("first batch: %+v", com)
	}
	com, err = g.Mutate(context.Background(), []Mutation{
		{Op: OpDeleteEdge, Src: 0, Dst: 3},
		{Op: OpAddVertex, VertexLabel: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if com.FirstSeq != 3 || com.LastSeq != 4 || com.Epoch != 2 {
		t.Fatalf("second batch: %+v", com)
	}
	if len(com.AddedVertices) != 1 || com.AddedVertices[0] != 4 {
		t.Fatalf("added vertices: %v", com.AddedVertices)
	}

	// Retention 3 keeps seqs 2..4; seq 1 is truncated but numbering holds.
	tail := g.Tail(0)
	if len(tail) != 3 || tail[0].Seq != 2 || tail[2].Seq != 4 {
		t.Fatalf("tail after retention: %+v", tail)
	}
	if tail[0].Epoch != 1 || tail[1].Epoch != 2 || tail[2].Epoch != 2 {
		t.Fatalf("epochs in tail: %+v", tail)
	}
	st := g.Stats()
	if st.LastSeq != 4 || st.WALRetained != 3 || st.WALTruncated != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Batches != 2 || st.EdgesInserted != 2 || st.EdgesDeleted != 1 || st.VerticesAdded != 1 {
		t.Fatalf("op counters: %+v", st)
	}
}

// TestSnapshotPinAndDrain pins the swap protocol: a pinned snapshot keeps
// serving its epoch across commits and drains only on release.
func TestSnapshotPinAndDrain(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})

	old := g.Acquire()
	if old.Epoch() != 0 {
		t.Fatalf("initial epoch %d", old.Epoch())
	}
	before, err := old.Engine().Count(edgePattern, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := g.Mutate(context.Background(), []Mutation{{Op: OpInsertEdge, Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot still answers for its own epoch.
	pinned, err := old.Engine().Count(edgePattern, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	if pinned != before {
		t.Fatalf("pinned snapshot changed: %d -> %d", before, pinned)
	}
	// An undirected edge pattern maps both orientations: +2 per insert.
	if got := count(t, g, edgePattern, graph.EdgeInduced); got != before+2 {
		t.Fatalf("new epoch count %d, want %d", got, before+2)
	}

	st := g.Stats()
	if st.SnapshotsLive != 2 || st.SnapshotsDrained != 0 {
		t.Fatalf("before release: %+v", st)
	}
	old.Release()
	st = g.Stats()
	if st.SnapshotsLive != 1 || st.SnapshotsDrained != 1 {
		t.Fatalf("after release: %+v", st)
	}
}

// TestMutateBatchIsAtomic pins rollback: a batch that fails mid-way (the
// middle mutation deletes a missing edge) leaves no trace — not in the
// counts, not in the WAL, not in the epoch.
func TestMutateBatchIsAtomic(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})
	before := count(t, g, edgePattern, graph.EdgeInduced)

	_, err := g.Mutate(context.Background(), []Mutation{
		{Op: OpInsertEdge, Src: 2, Dst: 3},
		{Op: OpDeleteEdge, Src: 0, Dst: 3}, // no such edge
		{Op: OpInsertEdge, Src: 0, Dst: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "mutation 1 (delete_edge)") {
		t.Fatalf("err = %v", err)
	}
	if got := count(t, g, edgePattern, graph.EdgeInduced); got != before {
		t.Fatalf("failed batch leaked: %d -> %d", before, got)
	}
	st := g.Stats()
	if st.Epoch != 0 || st.LastSeq != 0 || st.BatchesFailed != 1 || st.Batches != 0 {
		t.Fatalf("stats after failed batch: %+v", st)
	}

	// The writer must still accept the valid prefix afterwards.
	if _, err := g.Mutate(context.Background(), []Mutation{{Op: OpInsertEdge, Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	if got := count(t, g, edgePattern, graph.EdgeInduced); got != before+2 {
		t.Fatalf("post-rollback mutate: %d, want %d", got, before+2)
	}
}

// TestMutateCancelledContext pins the abort path: a context cancelled
// before (or during) the batch commits nothing.
func TestMutateCancelledContext(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Mutate(ctx, []Mutation{{Op: OpInsertEdge, Src: 2, Dst: 3}}); err == nil {
		t.Fatal("want context error")
	}
	if st := g.Stats(); st.Epoch != 0 || st.LastSeq != 0 {
		t.Fatalf("cancelled batch committed: %+v", st)
	}
}

// TestSubscriptionDeltaEquation is the core continuous-query invariant on
// the triangle pattern (three compatible pins, so the exclusion rule is
// exercised): for every batch, count(after) = count(before) + Σ deltas,
// and the commit marker arrives after exactly that many delta events.
func TestSubscriptionDeltaEquation(t *testing.T) {
	for _, variant := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
		g := newTestGraph(t, pathGraph, Options{})
		sub, err := g.Subscribe(triPattern, variant)
		if err != nil {
			t.Fatal(err)
		}
		before := count(t, g, triPattern, variant)

		// Batch: close the triangle 0-1-2, then add a vertex and build a
		// second triangle 2-3-4 — deltas from intermediate states must sum
		// exactly.
		com, err := g.Mutate(context.Background(), []Mutation{
			{Op: OpInsertEdge, Src: 0, Dst: 2},
			{Op: OpAddVertex, VertexLabel: 0},
			{Op: OpInsertEdge, Src: 2, Dst: 3},
			{Op: OpInsertEdge, Src: 3, Dst: 4},
			{Op: OpInsertEdge, Src: 2, Dst: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		after := count(t, g, triPattern, variant)
		if after != before+com.Deltas {
			t.Fatalf("%v: count(after)=%d, count(before)=%d + deltas=%d", variant, after, before, com.Deltas)
		}
		if com.Deltas == 0 {
			t.Fatalf("%v: inserting two triangles produced no deltas", variant)
		}

		var deltas uint64
		done := false
		for !done {
			ev, ok := <-sub.Events()
			if !ok {
				t.Fatalf("%v: stream closed early", variant)
			}
			switch ev.Kind {
			case EventDelta:
				deltas++
				if ev.Epoch != com.Epoch || ev.Seq < com.FirstSeq || ev.Seq > com.LastSeq {
					t.Fatalf("%v: delta outside batch: %+v vs %+v", variant, ev, com)
				}
				if len(ev.Embedding) != 3 {
					t.Fatalf("%v: embedding size %d", variant, len(ev.Embedding))
				}
			case EventCommit:
				if ev.Deltas != deltas || ev.Seq != com.LastSeq || ev.Epoch != com.Epoch {
					t.Fatalf("%v: commit marker %+v after %d deltas", variant, ev, deltas)
				}
				done = true
			}
		}
		if deltas != com.Deltas {
			t.Fatalf("%v: received %d deltas, commit reported %d", variant, deltas, com.Deltas)
		}
		sub.Close()
		if _, ok := <-sub.Events(); ok {
			t.Fatalf("%v: events after Close", variant)
		}
	}
}

// TestSubscribeRejectsVertexInduced pins the monotonicity guard.
func TestSubscribeRejectsVertexInduced(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})
	if _, err := g.Subscribe(triPattern, graph.VertexInduced); err != ErrVertexInduced {
		t.Fatalf("err = %v, want ErrVertexInduced", err)
	}
	dp := graph.MustParse("t directed\nv 0 A\nv 1 A\ne 0 1\n")
	if _, err := g.Subscribe(dp, graph.EdgeInduced); err == nil {
		t.Fatal("directedness mismatch must be rejected")
	}
}

// TestSlowSubscriberIsDropped pins the no-blocking rule: a subscriber
// whose buffer cannot hold a batch's deltas is evicted, the commit still
// succeeds, and Dropped reports the eviction.
func TestSlowSubscriberIsDropped(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{SubscriberBuffer: 1})
	sub, err := g.Subscribe(edgePattern, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	// Two inserted edges -> at least 2 delta events > buffer of 1.
	com, err := g.Mutate(context.Background(), []Mutation{
		{Op: OpInsertEdge, Src: 2, Dst: 3},
		{Op: OpInsertEdge, Src: 0, Dst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if com.Epoch != 1 {
		t.Fatalf("commit must survive subscriber eviction: %+v", com)
	}
	for range sub.Events() {
		// Drain whatever made it into the buffer until eviction closes it.
	}
	if !sub.Dropped() {
		t.Fatal("subscriber must report Dropped")
	}
	st := g.Stats()
	if st.SubscribersDropped != 1 || st.Subscribers != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// A fresh subscriber joins at the current epoch and sees only later
	// batches.
	sub2, err := g.Subscribe(edgePattern, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.JoinEpoch() != 1 {
		t.Fatalf("join epoch %d", sub2.JoinEpoch())
	}
}

// TestConcurrentReadersAcrossSwaps runs readers against whatever snapshot
// is current while a writer commits single-insert batches; under -race
// this is the swap-safety proof, and each observed count must equal some
// epoch's exact count (monotone +1 per commit from a path of 2 edges).
func TestConcurrentReadersAcrossSwaps(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddVertices(40, 0)
	b.AddEdge(0, 1, 0)
	base := core.NewEngine(b.MustBuild())
	g := NewGraph("bench", base, Options{})
	defer g.Close()

	const inserts = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := g.Acquire()
				n, err := snap.Engine().Count(edgePattern, graph.EdgeInduced)
				epoch := snap.Epoch()
				snap.Release()
				if err != nil {
					t.Error(err)
					return
				}
				// Epoch e holds exactly 1+e edges; each edge-pattern
				// mapping count is 2*edges on an undirected graph.
				if want := 2 * (1 + epoch); n != want {
					t.Errorf("epoch %d saw count %d, want %d", epoch, n, want)
					return
				}
			}
		}()
	}
	for i := 0; i < inserts; i++ {
		if _, err := g.Mutate(context.Background(), []Mutation{
			{Op: OpInsertEdge, Src: graph.VertexID(i + 1), Dst: graph.VertexID(i + 2)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	st := g.Stats()
	if st.Epoch != inserts {
		t.Fatalf("epoch %d, want %d", st.Epoch, inserts)
	}
	if st.SnapshotsLive < 1 {
		t.Fatalf("snapshots live %d", st.SnapshotsLive)
	}
}

// TestSharedSnapshotsSurviveWriterChurn is the copy-on-write contract seen
// from the commit path, for the race detector: readers pin snapshots that
// share every untouched cluster, the label array and both key indexes with
// the writer, while batches delete and re-insert edges, create clusters
// under fresh edge labels (which extends the pair index the snapshots
// read), add vertices, and — every third batch — fail, so the writer is
// re-cloned from the published store with readers inside it. Each reader
// checks its pinned epoch against that epoch's exact counts; the vertex-
// induced count walks the pair index.
func TestSharedSnapshotsSurviveWriterChurn(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})
	names := g.Names()

	// Epoch e holds the base path plus e/2 labelled 0-3 edges (rounded up)
	// and e/2 extra vertices; only the unlabelled 1-2 edge ever goes away
	// and comes back within one batch.
	const commits = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := g.Acquire()
				edges, err1 := snap.Engine().Count(edgePattern, graph.EdgeInduced)
				induced, err2 := snap.Engine().Count(edgePattern, graph.VertexInduced)
				epoch, vertices := snap.Epoch(), snap.Store().NumVertices()
				snap.Release()
				if err1 != nil || err2 != nil {
					t.Error(err1, err2)
					return
				}
				// The pattern's edge is unlabelled: 0-1 and 1-2 match in
				// both orientations at every epoch, and as induced pairs
				// too, since no labelled edge joins those endpoints.
				if edges != 4 || induced != 4 || vertices != 4+int(epoch/2) {
					t.Errorf("epoch %d saw %d/%d mappings on %d vertices", epoch, edges, induced, vertices)
					return
				}
			}
		}()
	}
	ctx := context.Background()
	for i := 0; i < commits; i++ {
		batch := []Mutation{
			{Op: OpDeleteEdge, Src: 1, Dst: 2},
			{Op: OpInsertEdge, Src: 1, Dst: 2},
		}
		if i%2 == 0 {
			name := "fresh" + strings.Repeat("'", i/2)
			batch = append(batch, Mutation{Op: OpInsertEdge, Src: 0, Dst: 3,
				EdgeLabel: names.Edge(name), LabelName: name, LabelNamed: true})
		} else {
			batch = append(batch, Mutation{Op: OpAddVertex, VertexLabel: 0})
		}
		if _, err := g.Mutate(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			bad := append(append([]Mutation(nil), batch[:2]...), Mutation{Op: OpDeleteEdge, Src: 0, Dst: 2})
			if _, err := g.Mutate(ctx, bad); err == nil {
				t.Fatal("deleting a missing edge must fail the batch")
			}
		}
	}
	close(stop)
	wg.Wait()
	if st := g.Stats(); st.Epoch != commits || st.BatchesFailed != commits/3 {
		t.Fatalf("epoch %d with %d failed batches, want %d and %d", st.Epoch, st.BatchesFailed, commits, commits/3)
	}
}

// TestMutateAfterClose pins ErrClosed.
func TestMutateAfterClose(t *testing.T) {
	g := newTestGraph(t, pathGraph, Options{})
	g.Close()
	if _, err := g.Mutate(context.Background(), []Mutation{{Op: OpInsertEdge, Src: 2, Dst: 3}}); err != ErrClosed {
		t.Fatalf("Mutate after Close: %v", err)
	}
	if _, err := g.Subscribe(edgePattern, graph.EdgeInduced); err != ErrClosed {
		t.Fatalf("Subscribe after Close: %v", err)
	}
}
