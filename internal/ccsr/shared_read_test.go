package ccsr_test

import (
	"math/rand"
	"sync"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/plan"
)

// TestSharedSnapshotReadsWriteNothing is the read half of the sharing
// contract, run under -race by `make race`: queries on one published
// snapshot are handed the snapshot's own clusters — the same pointers to
// every goroutine, no copy — and read them while a writer keeps cloning
// that snapshot and editing, compacting and sealing the clones. The race
// detector sees every access, so any write a read path still made to a
// shared cluster (a lazily memoized row list, a compaction) fails here.
func TestSharedSnapshotReadsWriteNothing(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		b := graph.NewBuilder(directed)
		const n = 300
		for i := 0; i < n; i++ {
			b.AddVertex(graph.Label(rng.Intn(2)))
		}
		for i := 0; i < 6*n; i++ {
			if v, w := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)); v != w {
				b.AddEdge(v, w, 0)
			}
		}
		snap := ccsr.Build(b.MustBuild()).Clone()

		// A labelled path and a triangle; the vertex-induced variant also
		// selects every cluster between the label pairs, for negation.
		pb := graph.NewBuilder(directed)
		pb.AddVertex(0)
		pb.AddVertex(1)
		pb.AddVertex(0)
		pb.AddEdge(0, 1, 0)
		pb.AddEdge(1, 2, 0)
		path := pb.MustBuild()
		pb.AddEdge(0, 2, 0)
		queries := []*graph.Graph{path, pb.MustBuild()}
		variants := []graph.Variant{graph.EdgeInduced, graph.VertexInduced, graph.Homomorphic}

		count := func(p *graph.Graph, variant graph.Variant) (uint64, *ccsr.View) {
			view, err := snap.ReadCSR(p, variant)
			if err != nil {
				t.Error(err)
				return 0, nil
			}
			pl, err := plan.Optimize(p, snap, variant, plan.ModeCSCE)
			if err != nil {
				t.Error(err)
				return 0, nil
			}
			st, err := exec.Run(view, pl, exec.Options{})
			if err != nil {
				t.Error(err)
			}
			return st.Embeddings, view
		}
		type answer struct {
			count    uint64
			clusters []*ccsr.Cluster
		}
		clustersOf := func(view *ccsr.View) []*ccsr.Cluster {
			var out []*ccsr.Cluster
			for _, k := range snap.Keys() {
				out = append(out, view.Cluster(k))
			}
			return out
		}
		want := map[[2]int]answer{}
		for qi, p := range queries {
			for vi, variant := range variants {
				c, view := count(p, variant)
				want[[2]int{qi, vi}] = answer{c, clustersOf(view)}
			}
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for qi, p := range queries {
						for vi, variant := range variants {
							select {
							case <-stop:
								return
							default:
							}
							got, view := count(p, variant)
							w := want[[2]int{qi, vi}]
							if view == nil || got != w.count {
								t.Errorf("directed=%v query %d %v: %d embeddings, want %d", directed, qi, variant, got, w.count)
								return
							}
							for i, cl := range clustersOf(view) {
								if cl != w.clusters[i] {
									t.Errorf("directed=%v query %d %v: view holds a cluster that is not the snapshot's own", directed, qi, variant)
									return
								}
							}
						}
					}
				}
			}()
		}
		// The writer: clone the snapshot, churn one clone past several
		// compactions, read it (which compacts what is still pending), seal
		// it by cloning it, and start over.
		for round := 0; round < 30; round++ {
			w := snap.Clone()
			for i := 0; i < 200; i++ {
				src, dst := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
				if src == dst {
					continue
				}
				if w.InsertEdge(src, dst, 0) != nil {
					if err := w.DeleteEdge(src, dst, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := w.ReadCSR(queries[1], graph.VertexInduced); err != nil {
				t.Fatal(err)
			}
			w.AddVertex(0)
			_ = w.Clone()
		}
		close(stop)
		wg.Wait()
	}
}
