package prefilter

import (
	"fmt"
	"math/rand"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/graph"
)

// buildGraph assembles a small hand-written graph: labels by letter,
// edges as (src, dst, edgeLabel) triples over the vertex order given.
func buildGraph(t *testing.T, directed bool, labels []graph.Label, edges [][3]uint32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(directed)
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.EdgeLabel(e[2]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func sigOf(t *testing.T, g *graph.Graph) *Signature {
	t.Helper()
	return Build(ccsr.Build(g))
}

const (
	lA graph.Label = iota
	lB
	lC
	lD
)

// TestFilterSpecificRejects drives one pattern through each filter of the
// cascade and asserts the rejecting filter, the Checked depth, and that a
// reason renders.
func TestFilterSpecificRejects(t *testing.T) {
	// Data: two A vertices, each with two B neighbors (el 0) and two C
	// neighbors (el 0). Degrees: A=4, B=1, C=1.
	data := buildGraph(t, false,
		[]graph.Label{lA, lA, lB, lB, lB, lB, lC, lC, lC, lC},
		[][3]uint32{{0, 2, 0}, {0, 3, 0}, {0, 6, 0}, {0, 7, 0}, {1, 4, 0}, {1, 5, 0}, {1, 8, 0}, {1, 9, 0}},
	)
	sig := sigOf(t, data)

	cases := []struct {
		name    string
		labels  []graph.Label
		edges   [][3]uint32
		variant graph.Variant
		filter  Filter
		checked uint8
	}{
		{"admit", []graph.Label{lA, lB}, [][3]uint32{{0, 1, 0}}, graph.EdgeInduced, "", 4},
		{"admit-hom-skips-wl", []graph.Label{lA, lB}, [][3]uint32{{0, 1, 0}}, graph.Homomorphic, "", 3},
		// B and C are never adjacent.
		{"nbr-label", []graph.Label{lB, lC}, [][3]uint32{{0, 1, 0}}, graph.EdgeInduced, FilterNbrLabel, 1},
		// A and B are adjacent, but never via edge label 1.
		{"label-pair-el", []graph.Label{lA, lB}, [][3]uint32{{0, 1, 1}}, graph.EdgeInduced, FilterLabelPair, 2},
		// Five A-B pattern edges vs four A-B data edges (injective count).
		{"label-pair-count", []graph.Label{lA, lB, lB, lB, lB, lB},
			[][3]uint32{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}, {0, 5, 0}}, graph.EdgeInduced, FilterLabelPair, 2},
		// Label D does not exist (single-vertex pattern: only the degree
		// filter's frequency case can see it).
		{"degree-missing-label", []graph.Label{lD}, nil, graph.EdgeInduced, FilterDegree, 3},
		// Three A vertices demanded, two exist.
		{"degree-frequency", []graph.Label{lA, lA, lA, lB}, [][3]uint32{{0, 3, 0}, {1, 3, 0}, {2, 3, 0}},
			graph.EdgeInduced, FilterDegree, 3},
		// One A with two B and three C neighbors: degree 5 needed, max is 4
		// (bucket(5)=3 > bucket(4)=3 — equal; use 8 edges to clear the log
		// bucket: degree 8 needed, bucket 4, vs data bucket 3).
		{"degree-too-high", []graph.Label{lA, lB, lB, lB, lB, lC, lC, lC, lC},
			[][3]uint32{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}, {0, 5, 0}, {0, 6, 0}, {0, 7, 0}, {0, 8, 0}},
			graph.EdgeInduced, FilterDegree, 3},
		// One A with four B neighbors: total degree 4 exists (bucket-wise),
		// the (A,B) cluster has 4 edges, but no single A has four B
		// neighbors (per-vertex cluster counts are 2, bucket 2; needed 4,
		// bucket 3) — only WL-1 sees the split.
		{"wl1", []graph.Label{lA, lB, lB, lB, lB},
			[][3]uint32{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}}, graph.EdgeInduced, FilterWL1, 4},
		// The same pattern is homomorphically fine (all B's may collapse).
		{"wl1-hom-admits", []graph.Label{lA, lB, lB, lB, lB},
			[][3]uint32{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}}, graph.Homomorphic, "", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildGraph(t, false, tc.labels, tc.edges)
			d := sig.Check(p, tc.variant)
			if d.Admit != (tc.filter == "") || d.Filter != tc.filter {
				t.Fatalf("Check = %+v, want filter %q", d, tc.filter)
			}
			if d.Checked != tc.checked {
				t.Errorf("Checked = %d, want %d", d.Checked, tc.checked)
			}
			if !d.Admit {
				if r := d.Reason(nil); r == "" || r == "admitted" {
					t.Errorf("Reason() = %q for reject", r)
				}
				// Cross-check against the executor: a reject must mean zero
				// embeddings.
				cnt, err := core.FromStore(ccsr.Build(data)).Count(p, tc.variant)
				if err != nil {
					t.Fatalf("Count: %v", err)
				}
				if cnt != 0 {
					t.Fatalf("false reject: filter %s but %d embeddings", d.Filter, cnt)
				}
			}
		})
	}
}

// TestDirectedSides proves direction matters: A->B existing does not admit
// a B->A pattern edge, and in/out WL sides are split.
func TestDirectedSides(t *testing.T) {
	data := buildGraph(t, true,
		[]graph.Label{lA, lB, lB},
		[][3]uint32{{0, 1, 0}, {0, 2, 0}},
	)
	sig := sigOf(t, data)

	rev := buildGraph(t, true, []graph.Label{lB, lA}, [][3]uint32{{0, 1, 0}})
	if d := sig.Check(rev, graph.EdgeInduced); d.Admit || d.Filter != FilterLabelPair {
		t.Fatalf("B->A should be rejected by label-pair, got %+v", d)
	}
	fwd := buildGraph(t, true, []graph.Label{lA, lB}, [][3]uint32{{0, 1, 0}})
	if d := sig.Check(fwd, graph.EdgeInduced); !d.Admit {
		t.Fatalf("A->B should admit, got %+v (%s)", d, d.Reason(nil))
	}
	// A vertex with two incoming A-edges: no B has in-degree 2 in cluster.
	twoIn := buildGraph(t, true, []graph.Label{lB, lA, lA}, [][3]uint32{{1, 0, 0}, {2, 0, 0}})
	d := sig.Check(twoIn, graph.EdgeInduced)
	if d.Admit {
		t.Fatalf("two A parents of one B should be rejected, got admit")
	}
}

// TestSoundnessRandom is the never-wrong property in miniature: across
// random data graphs, sampled real patterns, and label-mangled impossible
// patterns, a Reject always coincides with zero executor embeddings.
func TestSoundnessRandom(t *testing.T) {
	specs := []dataset.Spec{
		{Name: "ppi", Kind: dataset.PPI, Vertices: 120, TargetEdges: 420, VertexLabels: 4, EdgeLabels: 2, Seed: 7},
		{Name: "road", Kind: dataset.Road, Vertices: 100, TargetEdges: 240, VertexLabels: 3, Seed: 8},
		{Name: "directed", Directed: true, Vertices: 110, TargetEdges: 400, VertexLabels: 4, EdgeLabels: 2, Seed: 9},
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Generate()
			st := ccsr.Build(g)
			sig := Build(st)
			eng := core.FromStore(st)
			rng := rand.New(rand.NewSource(spec.Seed * 31))
			rejects := 0
			for i := 0; i < 40; i++ {
				size := 3 + rng.Intn(3)
				p, err := dataset.SamplePattern(g, size, i%2 == 0, rng)
				if err != nil {
					continue
				}
				if i%2 == 1 {
					p = mangleLabels(t, p, rng)
				}
				for _, variant := range []graph.Variant{graph.EdgeInduced, graph.VertexInduced, graph.Homomorphic} {
					d := sig.Check(p, variant)
					cnt, err := eng.Count(p, variant)
					if err != nil {
						t.Fatalf("Count: %v", err)
					}
					if !d.Admit {
						rejects++
						if cnt != 0 {
							t.Fatalf("false reject by %s (%s): %d embeddings", d.Filter, d.Reason(nil), cnt)
						}
					}
				}
			}
			t.Logf("%s: %d rejects across mangled/sampled patterns", spec.Name, rejects)
		})
	}
}

// mangleLabels shifts every vertex label by a random offset, usually
// producing a label-impossible pattern (and never an unsound one — the
// check is validated against the executor either way).
func mangleLabels(t *testing.T, p *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(p.Directed())
	shift := graph.Label(1 + rng.Intn(5))
	for v := 0; v < p.NumVertices(); v++ {
		b.AddVertex(p.Label(graph.VertexID(v)) + shift)
	}
	p.Edges(func(v, w graph.VertexID, el graph.EdgeLabel) {
		b.AddEdge(v, w, el)
	})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("mangle: %v", err)
	}
	return g
}

// TestIncrementalMatchesRebuild drives the same random mutation stream
// into a store and a signature, and after every batch requires the
// incrementally-maintained signature to be byte-identical to one rebuilt
// from scratch — the exactness invariant recovery relies on.
func TestIncrementalMatchesRebuild(t *testing.T) {
	for _, directed := range []bool{false, true} {
		t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			st := ccsr.Build(buildGraph(t, directed,
				[]graph.Label{lA, lB, lC},
				[][3]uint32{{0, 1, 0}, {1, 2, 1}},
			))
			sig := Build(st)
			type edge struct {
				src, dst graph.VertexID
				el       graph.EdgeLabel
			}
			var live []edge
			st.EdgesAll(func(src, dst graph.VertexID, el graph.EdgeLabel) {
				live = append(live, edge{src, dst, el})
			})
			for batch := 0; batch < 25; batch++ {
				sig.Batch(func(bw *BatchWriter) {
					for op := 0; op < 1+rng.Intn(6); op++ {
						switch {
						case rng.Intn(4) == 0:
							l := graph.Label(rng.Intn(4))
							st.AddVertex(l)
							bw.AddVertex(l)
						case len(live) > 0 && rng.Intn(3) == 0:
							i := rng.Intn(len(live))
							e := live[i]
							if err := st.DeleteEdge(e.src, e.dst, e.el); err != nil {
								t.Fatalf("DeleteEdge: %v", err)
							}
							bw.DeleteEdge(e.src, e.dst, e.el)
							live[i] = live[len(live)-1]
							live = live[:len(live)-1]
						default:
							n := uint32(st.NumVertices())
							src := graph.VertexID(rng.Intn(int(n)))
							dst := graph.VertexID(rng.Intn(int(n)))
							el := graph.EdgeLabel(rng.Intn(3))
							if err := st.InsertEdge(src, dst, el); err != nil {
								continue // duplicate or self-loop: store rejected it
							}
							bw.InsertEdge(src, dst, el)
							live = append(live, edge{src, dst, el})
						}
					}
				})
				want := Build(st)
				if got, wantS := sig.Dump(), want.Dump(); got != wantS {
					t.Fatalf("batch %d: incremental signature diverged from rebuild:\n--- incremental\n%s\n--- rebuild\n%s", batch, got, wantS)
				}
			}
		})
	}
}

// TestHistogramUpperBound proves countAtLeast never undercounts.
func TestHistogramUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h hist
	var vals []uint32
	for i := 0; i < 500; i++ {
		v := uint32(rng.Intn(1 << uint(rng.Intn(16))))
		h.add(v)
		vals = append(vals, v)
	}
	for k := uint32(0); k < 70; k++ {
		truth := uint64(0)
		for _, v := range vals {
			if v >= k {
				truth++
			}
		}
		if got := h.countAtLeast(k); got < truth {
			t.Fatalf("countAtLeast(%d) = %d < true %d", k, got, truth)
		}
	}
}

// TestCheckManyUnion checks the sharded union semantics: counts sum across
// signatures, existence is any-signature existence.
func TestCheckManyUnion(t *testing.T) {
	left := sigOf(t, buildGraph(t, false, []graph.Label{lA, lB}, [][3]uint32{{0, 1, 0}}))
	right := sigOf(t, buildGraph(t, false, []graph.Label{lA, lB, lB}, [][3]uint32{{0, 1, 0}, {0, 2, 0}}))

	// Three A-B edges exist only in the union.
	p := buildGraph(t, false, []graph.Label{lA, lB, lA, lB, lB},
		[][3]uint32{{0, 1, 0}, {2, 3, 0}, {2, 4, 0}})
	if d := CheckMany([]*Signature{left, right}, p, graph.EdgeInduced); !d.Admit {
		t.Fatalf("union should admit, got %+v (%s)", d, d.Reason(nil))
	}
	if d := left.Check(p, graph.EdgeInduced); d.Admit {
		t.Fatal("left alone should reject")
	}
	// Nothing supplies an A-C edge anywhere.
	pc := buildGraph(t, false, []graph.Label{lA, lC}, [][3]uint32{{0, 1, 0}})
	if d := CheckMany([]*Signature{left, right}, pc, graph.EdgeInduced); d.Admit || d.Filter != FilterNbrLabel {
		t.Fatalf("union should reject A-C via nbr-label, got %+v", d)
	}
}

// TestReasonRendering exercises both the numeric and the named renderings.
func TestReasonRendering(t *testing.T) {
	names := graph.NewLabelTable()
	author := names.Vertex("author")
	paper := names.Vertex("paper")
	cites := names.Edge("cites")
	_ = cites
	d := Decision{Filter: FilterNbrLabel, SrcLabel: author, DstLabel: paper, Needed: 1}
	if got := d.Reason(names); got != "no edge between labels author and paper exists in the graph" {
		t.Errorf("named reason = %q", got)
	}
	if got := d.Reason(nil); got == "" {
		t.Error("numeric reason empty")
	}
	if got := (Decision{Admit: true}).Reason(nil); got != "admitted" {
		t.Errorf("admit reason = %q", got)
	}
}

// TestCheckAllocFree keeps the admission check off the allocator: after
// scratch warm-up, Check must not allocate. (The race detector randomly
// drops sync.Pool items by design, so the assertion is skipped there.)
func TestCheckAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	data := buildGraph(t, false,
		[]graph.Label{lA, lB, lB, lC},
		[][3]uint32{{0, 1, 0}, {0, 2, 0}, {0, 3, 1}},
	)
	sig := sigOf(t, data)
	p := buildGraph(t, false, []graph.Label{lA, lB, lC}, [][3]uint32{{0, 1, 0}, {0, 2, 1}})
	for i := 0; i < 16; i++ {
		sig.Check(p, graph.EdgeInduced) // warm the scratch pool
	}
	if n := testing.AllocsPerRun(200, func() {
		sig.Check(p, graph.EdgeInduced)
	}); n > 0 {
		t.Errorf("Check allocates %.1f times per run, want 0", n)
	}
}

// BenchmarkCheckHuman is the admission check as a read-selective query
// pays it: compile + probe + evaluate of seeded Human patterns of the
// workload's four classes against the Human signature. D32 runs first, so
// the smaller classes see the scratch a server's mix leaves behind.
func BenchmarkCheckHuman(b *testing.B) {
	spec, _ := dataset.ByName("Human")
	g := spec.Generate()
	sig := Build(ccsr.Build(g))
	for _, c := range []dataset.PatternConfig{
		{Size: 32, Dense: true}, {Size: 16, Dense: true}, {Size: 8, Dense: true}, {Size: 8},
	} {
		c.Count, c.Seed = 4, 7
		patterns, err := dataset.SamplePatterns(g, c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sig.Check(patterns[i%len(patterns)], graph.EdgeInduced)
			}
		})
	}
}
