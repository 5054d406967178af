package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/prefilter"
)

// manglePattern shifts every vertex label, usually making the pattern
// label-impossible; the property gate verifies soundness either way.
func manglePattern(t *testing.T, p *graph.Graph, shift graph.Label) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(p.Directed())
	for v := 0; v < p.NumVertices(); v++ {
		b.AddVertex(p.Label(graph.VertexID(v)) + shift)
	}
	p.Edges(func(v, w graph.VertexID, el graph.EdgeLabel) { b.AddEdge(v, w, el) })
	return b.MustBuild()
}

// TestPrefilterNeverWrong is the issue's property gate: for every corpus
// dataset × K ∈ {1,2,4} × mutation interleavings, a prefilter Reject must
// coincide with an executor count of zero — checked by forcing the scatter
// with SkipPrefilter and comparing, for sampled patterns, their mangled
// variants, and both supported matching variants, after every mutation
// round. Runs under -race via make race.
func TestPrefilterNeverWrong(t *testing.T) {
	for _, spec := range exactnessCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, k := range []int{1, 2, 4} {
				k := k
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					g := spec.Generate()
					c := openCoord(t, g, k, SchemeID)

					set := make(edgeSet)
					g.Edges(func(src, dst graph.VertexID, el graph.EdgeLabel) {
						set[canonEdge(g.Directed(), src, dst, el)] = true
					})
					verts := g.NumVertices()
					labels := append([]graph.Label(nil), g.Labels()...)
					rng := rand.New(rand.NewSource(spec.Seed * 101))

					rejects, admits := 0, 0
					stage := func(round int) {
						ref := rebuild(g.Directed(), verts, labels, set)
						patterns := samplePatterns(t, ref, spec.Seed+int64(round))
						for _, p := range patterns {
							patterns = append(patterns, manglePattern(t, p, graph.Label(1+rng.Intn(4))))
							break
						}
						for pi, p := range patterns {
							for _, variant := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
								d := c.PrefilterCheck(p, variant)
								res, err := c.Match(context.Background(), p, MatchOptions{Variant: variant, SkipPrefilter: true})
								if err != nil {
									t.Fatalf("round %d pattern %d: forced match: %v", round, pi, err)
								}
								if !d.Admit {
									rejects++
									if res.Embeddings != 0 {
										t.Fatalf("round %d pattern %d %s: FALSE REJECT by %s (%s) with %d embeddings",
											round, pi, variant, d.Filter, d.Reason(c.Names()), res.Embeddings)
									}
									// The unforced path must agree and skip the scatter.
									gated, err := c.Match(context.Background(), p, MatchOptions{Variant: variant})
									if err != nil {
										t.Fatalf("gated match: %v", err)
									}
									if gated.RejectedBy != d.Filter || gated.Embeddings != 0 || gated.Twigs != 0 {
										t.Fatalf("gated match = %+v, want reject by %s with no decomposition", gated, d.Filter)
									}
								} else {
									admits++
								}
							}
						}
					}

					stage(0)
					for round := 1; round <= 3; round++ {
						var muts []live.Mutation
						for j := 0; j < 6; j++ {
							if rng.Intn(4) == 0 {
								muts = append(muts, live.Mutation{Op: live.OpAddVertex, VertexLabel: graph.Label(rng.Intn(5))})
								continue
							}
							pending := verts + countAdds(muts)
							src := graph.VertexID(rng.Intn(pending))
							dst := graph.VertexID(rng.Intn(pending))
							if src == dst {
								continue
							}
							e := canonEdge(g.Directed(), src, dst, 0)
							cs, cd := graph.VertexID(e[0]), graph.VertexID(e[1])
							if edgeInBatch(muts, cs, cd) {
								continue
							}
							if set[e] {
								muts = append(muts, live.Mutation{Op: live.OpDeleteEdge, Src: cs, Dst: cd})
							} else {
								muts = append(muts, live.Mutation{Op: live.OpInsertEdge, Src: cs, Dst: cd})
							}
						}
						if len(muts) == 0 {
							continue
						}
						if _, err := c.Mutate(context.Background(), muts); err != nil {
							t.Fatalf("round %d mutate: %v", round, err)
						}
						applyRef(set, muts, g.Directed(), &verts, &labels)
						stage(round)
					}
					if rejects == 0 {
						t.Error("property gate never exercised a reject (mangling too weak?)")
					}
					t.Logf("%s k=%d: %d rejects, %d admits", spec.Name, k, rejects, admits)
				})
			}
		})
	}
}

// TestPrefilterConcurrentChecks races admission checks against live
// mutation batches (the signature's RLock path against Batch's write
// path); the race detector is the assertion, plus a quiesced final
// soundness check. Runs under -race via make race.
func TestPrefilterConcurrentChecks(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.PPI, Vertices: 160, TargetEdges: 500, VertexLabels: 3, Seed: 51}
	g := spec.Generate()
	c := openCoord(t, g, 4, SchemeID)
	real := samplePatterns(t, g, 51)[0]
	impossible := manglePattern(t, real, 7)

	const writers = 3
	var wg sync.WaitGroup
	errCh := make(chan error, writers+2)
	inserted := make([][]live.Mutation, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for r := 0; r < 15; r++ {
				var muts []live.Mutation
				for len(muts) < 3 {
					src := graph.VertexID(rng.Intn(g.NumVertices()/writers))*writers + graph.VertexID(w)
					dst := graph.VertexID(rng.Intn(g.NumVertices()/writers))*writers + graph.VertexID(w)
					if src == dst || g.HasEdge(src, dst) || edgeInBatch(muts, src, dst) || edgeInBatch(inserted[w], src, dst) {
						continue
					}
					muts = append(muts, live.Mutation{Op: live.OpInsertEdge, Src: src, Dst: dst})
				}
				if _, err := c.Mutate(context.Background(), muts); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				inserted[w] = append(inserted[w], muts...)
			}
		}(w)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				c.PrefilterCheck(real, graph.EdgeInduced)
				c.PrefilterCheck(impossible, graph.Homomorphic)
				if r%10 == 0 {
					if _, err := c.Match(context.Background(), impossible, MatchOptions{Variant: graph.EdgeInduced}); err != nil {
						errCh <- fmt.Errorf("checker %d: %w", i, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiesced: rejects still imply empty, and per-shard signatures still
	// equal a from-scratch rebuild of each shard's published store.
	for _, variant := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
		if d := c.PrefilterCheck(impossible, variant); !d.Admit {
			res, err := c.Match(context.Background(), impossible, MatchOptions{Variant: variant, SkipPrefilter: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Embeddings != 0 {
				t.Fatalf("%s: false reject after concurrent load: %d embeddings", variant, res.Embeddings)
			}
		}
	}
	for i, sh := range c.locals {
		st, release := sh.engineSnapshot()
		want := prefilter.Build(st)
		release()
		if got, wantS := sh.g.Prefilter().Dump(), want.Dump(); got != wantS {
			t.Fatalf("shard %d signature diverged after concurrent load:\n--- live\n%s\n--- rebuild\n%s", i, got, wantS)
		}
	}
}
