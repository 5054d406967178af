package live

import (
	"context"
	"testing"
	"time"

	"csce/internal/graph"
	"csce/internal/prefilter"
)

// TestPrefilterTracksCommits proves the incrementally-maintained signature
// equals a from-scratch rebuild of the published store after every commit,
// that rejected batches leave it untouched, and that the SigMaintain
// observer fires once per commit.
func TestPrefilterTracksCommits(t *testing.T) {
	var maintained int
	g := openDurable(t, pathGraph, Options{Observer: Observer{
		SigMaintain: func(time.Duration) { maintained++ },
	}})
	defer g.Close()
	ctx := context.Background()

	checkAgainstRebuild := func(stage string) {
		t.Helper()
		snap := g.Acquire()
		defer snap.Release()
		want := prefilter.Build(snap.Store())
		if got, wantS := g.Prefilter().Dump(), want.Dump(); got != wantS {
			t.Fatalf("%s: signature diverged from published store:\n--- live\n%s\n--- rebuild\n%s", stage, got, wantS)
		}
	}
	checkAgainstRebuild("open")

	bLabel := g.Names().Vertex("B")
	if _, err := g.Mutate(ctx, []Mutation{
		{Op: OpAddVertex, VertexLabel: bLabel, LabelName: "B", LabelNamed: true},
		{Op: OpInsertEdge, Src: 3, Dst: 4},
		{Op: OpInsertEdge, Src: 0, Dst: 3},
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRebuild("inserts")
	if _, err := g.Mutate(ctx, []Mutation{
		{Op: OpDeleteEdge, Src: 1, Dst: 2},
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRebuild("delete")

	// A failed batch (duplicate edge after a valid insert) must roll back
	// without touching the signature.
	before := g.Prefilter().Dump()
	if _, err := g.Mutate(ctx, []Mutation{
		{Op: OpInsertEdge, Src: 1, Dst: 2},
		{Op: OpInsertEdge, Src: 0, Dst: 1}, // duplicate: aborts the batch
	}); err == nil {
		t.Fatal("duplicate insert should fail the batch")
	}
	if got := g.Prefilter().Dump(); got != before {
		t.Fatalf("rejected batch mutated the signature:\n--- after\n%s\n--- before\n%s", got, before)
	}
	checkAgainstRebuild("rollback")

	if maintained != 2 {
		t.Fatalf("SigMaintain fired %d times, want 2 (committed batches only)", maintained)
	}

	// The signature actually gates: an A-B edge exists now, an A-C cannot.
	ab, err := graph.ParseStringWith("t undirected\nv 0 A\nv 1 B\ne 0 1\n", g.Names())
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Prefilter().Check(ab, graph.EdgeInduced); !d.Admit {
		t.Fatalf("A-B should admit, got %s", d.Reason(g.Names()))
	}
	cLabel := g.Names().Vertex("C")
	pb := graph.NewBuilder(false)
	pb.AddVertex(g.Names().Vertex("A"))
	pb.AddVertex(cLabel)
	pb.AddEdge(0, 1, 0)
	ac := pb.MustBuild()
	if d := g.Prefilter().Check(ac, graph.EdgeInduced); d.Admit {
		t.Fatal("A-C should be rejected")
	}
}

// TestPrefilterRecoveryRebuild closes a durable graph mid-history and
// reopens it: the signature rebuilt from the recovered store must be
// byte-identical to the incrementally-maintained one at close time —
// including labels minted at runtime, which survive by name.
func TestPrefilterRecoveryRebuild(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Durability: Durability{Dir: dir, Fsync: FsyncNever}}
	ctx := context.Background()

	g := openDurable(t, pathGraph, opts)
	cLabel := g.Names().Vertex("C")
	if _, err := g.Mutate(ctx, []Mutation{
		{Op: OpAddVertex, VertexLabel: cLabel, LabelName: "C", LabelNamed: true},
		{Op: OpAddVertex, VertexLabel: cLabel, LabelName: "C", LabelNamed: true},
		{Op: OpInsertEdge, Src: 4, Dst: 5},
		{Op: OpInsertEdge, Src: 0, Dst: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Mutate(ctx, []Mutation{
		{Op: OpDeleteEdge, Src: 0, Dst: 1},
	}); err != nil {
		t.Fatal(err)
	}
	want := g.Prefilter().Dump()
	g.Close()

	r := openDurable(t, pathGraph, opts)
	defer r.Close()
	if got := r.Prefilter().Dump(); got != want {
		t.Fatalf("recovered signature differs from pre-crash incremental state:\n--- recovered\n%s\n--- incremental\n%s", got, want)
	}
}
