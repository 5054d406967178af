package exec

import (
	"math/rand"
	"testing"
	"time"

	"csce/internal/baseline"
	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

// countCSCE runs the full CSCE pipeline (cluster, plan, execute) and
// returns the embedding count.
func countCSCE(t testing.TB, g, p *graph.Graph, variant graph.Variant, opts Options) Stats {
	t.Helper()
	store := ccsr.Build(g)
	pl, err := plan.Optimize(p, store, variant, plan.ModeCSCE)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	view, err := store.ReadCSR(p, variant)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	st, err := Run(view, pl, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return st
}

func randomGraph(rng *rand.Rand, n, m, labels, edgeLabels int, directed bool) *graph.Graph {
	b := graph.NewBuilder(directed)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		v := graph.VertexID(rng.Intn(n))
		w := graph.VertexID(rng.Intn(n))
		if v == w {
			continue
		}
		var el graph.EdgeLabel
		if edgeLabels > 1 {
			el = graph.EdgeLabel(rng.Intn(edgeLabels))
		}
		b.AddEdge(v, w, el)
	}
	return b.MustBuild()
}

func randomConnectedPattern(rng *rand.Rand, n, labels, edgeLabels int, directed bool) *graph.Graph {
	b := graph.NewBuilder(directed)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		var el graph.EdgeLabel
		if edgeLabels > 1 {
			el = graph.EdgeLabel(rng.Intn(edgeLabels))
		}
		if directed && rng.Intn(2) == 0 {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j), el)
		} else {
			b.AddEdge(graph.VertexID(j), graph.VertexID(i), el)
		}
	}
	for k := 0; k < rng.Intn(n); k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		var el graph.EdgeLabel
		if edgeLabels > 1 {
			el = graph.EdgeLabel(rng.Intn(edgeLabels))
		}
		b.AddEdge(graph.VertexID(i), graph.VertexID(j), el)
	}
	return b.MustBuild()
}

// TestMatchesBruteForce is the central differential test: on hundreds of
// random (graph, pattern, variant) triples, the CSCE engine must agree
// exactly with the exhaustive oracle.
func TestMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		labels := 1 + rng.Intn(3)
		edgeLabels := 1 + rng.Intn(2)
		g := randomGraph(rng, 8+rng.Intn(6), 20+rng.Intn(15), labels, edgeLabels, directed)
		p := randomConnectedPattern(rng, 2+rng.Intn(4), labels, edgeLabels, directed)
		for _, variant := range graph.Variants() {
			want := baseline.BruteForce(g, p, variant)
			got := countCSCE(t, g, p, variant, Options{}).Embeddings
			if got != want {
				t.Fatalf("seed %d %v (directed=%v): CSCE found %d, brute force %d\npattern:\n%s",
					seed, variant, directed, got, want, dump(p))
			}
		}
	}
}

func dump(p *graph.Graph) string {
	s := "t\n"
	for v := 0; v < p.NumVertices(); v++ {
		s += "v " + itoa(v) + " " + itoa(int(p.Label(graph.VertexID(v)))) + "\n"
	}
	p.Edges(func(a, b graph.VertexID, l graph.EdgeLabel) {
		s += "e " + itoa(int(a)) + " " + itoa(int(b)) + " " + itoa(int(l)) + "\n"
	})
	return s
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var b []byte
	for x > 0 {
		b = append([]byte{byte('0' + x%10)}, b...)
		x /= 10
	}
	return string(b)
}

// TestAblationsAgree verifies the SCE cache and factorization are pure
// optimizations: switching them off never changes counts.
func TestAblationsAgree(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		g := randomGraph(rng, 12, 40, 3, 1, directed)
		p := randomConnectedPattern(rng, 5, 3, 1, directed)
		for _, variant := range graph.Variants() {
			base := countCSCE(t, g, p, variant, Options{}).Embeddings
			noCache := countCSCE(t, g, p, variant, Options{DisableSCECache: true}).Embeddings
			noFact := countCSCE(t, g, p, variant, Options{DisableFactorization: true}).Embeddings
			neither := countCSCE(t, g, p, variant, Options{DisableSCECache: true, DisableFactorization: true}).Embeddings
			if base != noCache || base != noFact || base != neither {
				t.Fatalf("seed %d %v: counts diverge: %d / %d / %d / %d",
					seed, variant, base, noCache, noFact, neither)
			}
		}
	}
}

func TestPlanModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 14, 50, 3, 1, false)
	p := randomConnectedPattern(rng, 6, 3, 1, false)
	store := ccsr.Build(g)
	for _, variant := range graph.Variants() {
		view, err := store.ReadCSR(p, variant)
		if err != nil {
			t.Fatal(err)
		}
		var counts []uint64
		for _, mode := range []plan.Mode{plan.ModeCSCE, plan.ModeRI, plan.ModeRICluster, plan.ModeRM, plan.ModeCostBased} {
			pl, err := plan.Optimize(p, store, variant, mode)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Run(view, pl, Options{})
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, st.Embeddings)
		}
		for _, c := range counts[1:] {
			if c != counts[0] {
				t.Fatalf("%v: plan modes disagree: %v", variant, counts)
			}
		}
	}
}

func TestTrianglesInClique(t *testing.T) {
	// K5 contains 5*4*3 = 60 ordered triangles (edge-induced embeddings of
	// K3), all of them also vertex-induced; homomorphic adds nothing for a
	// clique pattern since self-mappings need self-loops.
	g := graph.Clique(5, 0)
	p := graph.Clique(3, 0)
	for _, variant := range graph.Variants() {
		got := countCSCE(t, g, p, variant, Options{}).Embeddings
		if got != 60 {
			t.Fatalf("%v: K3 in K5 = %d, want 60", variant, got)
		}
	}
}

func TestPathCounts(t *testing.T) {
	// Path pattern a-b-c (all one label) in a path graph of 5 vertices:
	// edge-induced embeddings = ordered walks v-w-x with distinct ends
	// = 2 * (number of length-2 paths) = 2*3 = 6.
	g := graph.Path(5, 0)
	p := graph.Path(3, 0)
	if got := countCSCE(t, g, p, graph.EdgeInduced, Options{}).Embeddings; got != 6 {
		t.Fatalf("edge-induced P3 in P5 = %d, want 6", got)
	}
	// Homomorphic adds the walks that fold back (v-w-v): each edge twice.
	if got := countCSCE(t, g, p, graph.Homomorphic, Options{}).Embeddings; got != 14 {
		t.Fatalf("homomorphic P3 in P5 = %d, want 14", got)
	}
}

func TestVertexInducedExcludesChords(t *testing.T) {
	// Data: triangle. Pattern: path of 3. Edge-induced finds the 6 ordered
	// paths; vertex-induced finds none because every vertex triple is a
	// triangle, not a path.
	g := graph.Cycle(3)
	p := graph.Path(3)
	if got := countCSCE(t, g, p, graph.EdgeInduced, Options{}).Embeddings; got != 6 {
		t.Fatalf("edge-induced = %d, want 6", got)
	}
	if got := countCSCE(t, g, p, graph.VertexInduced, Options{}).Embeddings; got != 0 {
		t.Fatalf("vertex-induced = %d, want 0", got)
	}
}

func TestVertexInducedDirectedReverseArc(t *testing.T) {
	// Data has arcs in both directions between 0 and 1; the pattern wants
	// exactly one arc. Vertex-induced must reject the pair, edge-induced
	// accepts it.
	g := graph.MustParse("t directed\nv 0 A\nv 1 B\ne 0 1\ne 1 0\n")
	p := graph.MustParse("t directed\nv 0 A\nv 1 B\ne 0 1\n")
	if got := countCSCE(t, g, p, graph.EdgeInduced, Options{}).Embeddings; got != 1 {
		t.Fatalf("edge-induced = %d, want 1", got)
	}
	if got := countCSCE(t, g, p, graph.VertexInduced, Options{}).Embeddings; got != 0 {
		t.Fatalf("vertex-induced = %d, want 0 (reverse arc present)", got)
	}
}

func TestVertexInducedEdgeLabelExactness(t *testing.T) {
	// Data edge carries labels x and y (parallel edges); pattern asks for x
	// only. The induced subgraph includes the y edge, so no vertex-induced
	// match; edge-induced matches.
	g := graph.MustParse("t undirected\nv 0 A\nv 1 B\ne 0 1 x\ne 0 1 y\n")
	p := graph.MustParse("t undirected\nv 0 A\nv 1 B\ne 0 1 x\n")
	if got := countCSCE(t, g, p, graph.EdgeInduced, Options{}).Embeddings; got != 1 {
		t.Fatalf("edge-induced = %d, want 1", got)
	}
	if got := countCSCE(t, g, p, graph.VertexInduced, Options{}).Embeddings; got != 0 {
		t.Fatalf("vertex-induced = %d, want 0 (extra parallel label)", got)
	}
}

func TestHeterogeneousDirectedLabels(t *testing.T) {
	g := graph.MustParse(`
t directed
v 0 A
v 1 B
v 2 B
v 3 C
e 0 1 r
e 0 2 r
e 1 3 s
e 2 3 s
`)
	p := graph.MustParse("t directed\nv 0 A\nv 1 B\nv 2 C\ne 0 1 r\ne 1 2 s\n")
	for _, variant := range graph.Variants() {
		want := baseline.BruteForce(g, p, variant)
		got := countCSCE(t, g, p, variant, Options{}).Embeddings
		if got != want {
			t.Fatalf("%v: got %d want %d", variant, got, want)
		}
		if variant == graph.EdgeInduced && got != 2 {
			t.Fatalf("expected the two A->B->C chains, got %d", got)
		}
	}
}

func TestMissingClusterShortCircuits(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 B\ne 0 1\n")
	// Parse the pattern with the data graph's label table so "C" really is
	// a different label than anything in the data.
	p, err := graph.ParseStringWith("t undirected\nv 0 A\nv 1 C\ne 0 1\n", g.Names)
	if err != nil {
		t.Fatal(err)
	}
	st := countCSCE(t, g, p, graph.EdgeInduced, Options{})
	if st.Embeddings != 0 || st.Steps != 0 {
		t.Fatalf("missing cluster must yield an immediate empty result: %+v", st)
	}
}

func TestSingleVertexPattern(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 B\nv 2 A\ne 0 1\n")
	p := graph.MustParse("t undirected\nv 0 A\n")
	for _, variant := range graph.Variants() {
		if got := countCSCE(t, g, p, variant, Options{}).Embeddings; got != 2 {
			t.Fatalf("%v: single-vertex pattern found %d, want 2", variant, got)
		}
	}
}

func TestLimitStopsSearch(t *testing.T) {
	g := graph.Clique(8, 0)
	p := graph.Path(3, 0)
	st := countCSCE(t, g, p, graph.EdgeInduced, Options{Limit: 10, DisableFactorization: true})
	if !st.LimitHit {
		t.Fatal("limit must be reported")
	}
	if st.Embeddings != 10 {
		t.Fatalf("limit run found %d, want exactly 10 without factorization", st.Embeddings)
	}
}

func TestTimeLimit(t *testing.T) {
	// A large clique with a clique pattern explodes combinatorially; a tiny
	// time limit must abort quickly and report it.
	g := graph.Clique(40, 0)
	p := graph.Clique(6, 0)
	start := time.Now()
	st := countCSCE(t, g, p, graph.EdgeInduced, Options{TimeLimit: 20 * time.Millisecond, DisableFactorization: true})
	if !st.TimedOut {
		t.Fatalf("expected timeout, stats: %+v", st)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not abort promptly")
	}
}

func TestOnEmbeddingCallback(t *testing.T) {
	g := graph.Clique(4, 0)
	p := graph.Path(2, 0) // single edge: 12 ordered embeddings in K4
	var got [][2]graph.VertexID
	st := countCSCE(t, g, p, graph.EdgeInduced, Options{
		OnEmbedding: func(m []graph.VertexID) bool {
			got = append(got, [2]graph.VertexID{m[0], m[1]})
			return true
		},
	})
	if st.Embeddings != 12 || len(got) != 12 {
		t.Fatalf("callback saw %d embeddings, stats %d, want 12", len(got), st.Embeddings)
	}
	seen := map[[2]graph.VertexID]bool{}
	for _, m := range got {
		if m[0] == m[1] || seen[m] {
			t.Fatalf("invalid or duplicate embedding %v", m)
		}
		seen[m] = true
	}
	// Early stop.
	n := 0
	st = countCSCE(t, g, p, graph.EdgeInduced, Options{
		OnEmbedding: func(m []graph.VertexID) bool {
			n++
			return n < 3
		},
	})
	if n != 3 {
		t.Fatalf("callback stop after 3, saw %d", n)
	}
}

func TestSymmetryConstraints(t *testing.T) {
	// A single-edge unlabeled pattern has automorphism group of size 2;
	// constraining f(u0) < f(u1) must halve the embedding count.
	g := graph.Clique(5, 0)
	p := graph.Path(2, 0)
	full := countCSCE(t, g, p, graph.EdgeInduced, Options{}).Embeddings
	half := countCSCE(t, g, p, graph.EdgeInduced, Options{
		SymmetryConstraints: [][2]graph.VertexID{{0, 1}},
	}).Embeddings
	if full != 2*half {
		t.Fatalf("symmetry breaking: full=%d half=%d", full, half)
	}
	// Fully ordered triangle in K5: C(5,3) = 10 unordered instances.
	tri := graph.Clique(3, 0)
	ordered := countCSCE(t, g, tri, graph.EdgeInduced, Options{
		SymmetryConstraints: [][2]graph.VertexID{{0, 1}, {1, 2}},
	}).Embeddings
	if ordered != 10 {
		t.Fatalf("ordered triangles in K5 = %d, want 10", ordered)
	}
}

func TestSCECacheReusesCandidates(t *testing.T) {
	// Star data graph and two-leaf star pattern: the second leaf's
	// candidates are independent of the first leaf's mapping, so the cache
	// must report reuse.
	b := graph.NewBuilder(false)
	center := b.AddVertex(0)
	for i := 0; i < 10; i++ {
		leaf := b.AddVertex(1)
		b.AddEdge(center, leaf, 0)
	}
	g := b.MustBuild()
	pb := graph.NewBuilder(false)
	c := pb.AddVertex(0)
	l1 := pb.AddVertex(1)
	l2 := pb.AddVertex(1)
	pb.AddEdge(c, l1, 0)
	pb.AddEdge(c, l2, 0)
	p := pb.MustBuild()

	st := countCSCE(t, g, p, graph.EdgeInduced, Options{DisableFactorization: true})
	if st.Embeddings != 10*9 {
		t.Fatalf("two-leaf star count = %d, want 90", st.Embeddings)
	}
	if st.CandidateReuses == 0 {
		t.Fatalf("expected SCE candidate reuse, stats: %+v", st)
	}
	// Without the cache, every sibling mapping rebuilds candidates.
	off := countCSCE(t, g, p, graph.EdgeInduced, Options{DisableSCECache: true, DisableFactorization: true})
	if off.CandidateReuses != 0 {
		t.Fatal("cache disabled but reuse reported")
	}
	if off.CandidateBuilds <= st.CandidateBuilds {
		t.Fatalf("cache must reduce builds: with=%d without=%d", st.CandidateBuilds, off.CandidateBuilds)
	}
}

func TestNECCandidateSharing(t *testing.T) {
	// A star pattern with four identical leaves: all leaf levels are
	// NEC-equivalent with the same single parent, so their candidate lists
	// must be shared rather than rebuilt.
	b := graph.NewBuilder(false)
	center := b.AddVertex(0)
	for i := 0; i < 12; i++ {
		leaf := b.AddVertex(1)
		b.AddEdge(center, leaf, 0)
	}
	g := b.MustBuild()
	pb := graph.NewBuilder(false)
	c := pb.AddVertex(0)
	for i := 0; i < 4; i++ {
		l := pb.AddVertex(1)
		pb.AddEdge(c, l, 0)
	}
	p := pb.MustBuild()

	st := countCSCE(t, g, p, graph.EdgeInduced, Options{DisableFactorization: true})
	if want := uint64(12 * 11 * 10 * 9); st.Embeddings != want {
		t.Fatalf("4-leaf star count = %d, want %d", st.Embeddings, want)
	}
	if st.NECShares == 0 {
		t.Fatalf("expected NEC candidate sharing, stats: %+v", st)
	}
	// The shared levels never build their own candidates: one build for
	// the first leaf level serves all four.
	if st.CandidateBuilds != 1 {
		t.Fatalf("candidate builds = %d, want 1 (shared across equivalent leaves)", st.CandidateBuilds)
	}
	// Equivalence must not change counts vs the cache-disabled run (which
	// cannot share).
	off := countCSCE(t, g, p, graph.EdgeInduced, Options{DisableSCECache: true, DisableFactorization: true})
	if off.Embeddings != st.Embeddings {
		t.Fatalf("NEC sharing changed the count: %d vs %d", st.Embeddings, off.Embeddings)
	}
	if off.NECShares != 0 {
		t.Fatal("sharing must be off with the cache disabled")
	}
}

func TestFactorizationCountsLeaves(t *testing.T) {
	b := graph.NewBuilder(false)
	center := b.AddVertex(0)
	for i := 0; i < 50; i++ {
		leaf := b.AddVertex(1)
		b.AddEdge(center, leaf, 0)
	}
	g := b.MustBuild()
	p := graph.Path(2, 0, 1) // center-leaf edge
	st := countCSCE(t, g, p, graph.EdgeInduced, Options{})
	if st.Embeddings != 50 {
		t.Fatalf("count = %d, want 50", st.Embeddings)
	}
	if st.FactorizedLevels == 0 {
		t.Fatalf("leaf level should be factorized: %+v", st)
	}
	if st.Steps >= 50 {
		t.Fatalf("factorization should avoid per-leaf steps, took %d", st.Steps)
	}

	// A factorized leaf that shares its label with earlier mapped vertices
	// counts its candidates minus the peers' mappings among them: the
	// other leaves of a same-label star always sit in its candidate list,
	// and on a path, the vertex two hops back does when the data closes a
	// triangle.
	rng := rand.New(rand.NewSource(52))
	data := randomGraph(rng, 40, 220, 2, 1, false)
	star := graph.NewBuilder(false)
	hub := star.AddVertex(0)
	for i := 0; i < 4; i++ {
		star.AddEdge(hub, star.AddVertex(1), 0)
	}
	tail := graph.NewBuilder(false)
	tail.AddVertices(6, 0)
	for i := 0; i+1 < 5; i++ {
		tail.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 0)
	}
	tail.AddEdge(2, 5, 0) // the tail, off the middle of the path
	for _, c := range []struct {
		name string
		p    *graph.Graph
	}{
		{"same-label star", star.MustBuild()},
		{"same-label path", graph.Path(4, 0)},
		{"same-label path with a tail", tail.MustBuild()},
	} {
		peered := false
		for _, variant := range []graph.Variant{graph.EdgeInduced, graph.VertexInduced, graph.Homomorphic} {
			want := baseline.BruteForce(data, c.p, variant)
			got := countCSCE(t, data, c.p, variant, Options{})
			unfactorized := countCSCE(t, data, c.p, variant, Options{DisableFactorization: true})
			if got.Embeddings != want || unfactorized.Embeddings != want {
				t.Fatalf("%s %v: factorized %d, unfactorized %d, brute force %d", c.name, variant, got.Embeddings, unfactorized.Embeddings, want)
			}
			if want == 0 {
				t.Fatalf("%s %v: no embeddings, so nothing is checked", c.name, variant)
			}
			if variant.Injective() && got.FactorizedLevels > 0 && hasFactorizedPeer(t, data, c.p, variant) {
				peered = true
			}
		}
		if !peered {
			t.Fatalf("%s: no injective run factorized a level with earlier same-label depths", c.name)
		}
	}
}

// hasFactorizedPeer reports whether p's compiled program under variant has
// a factorizable level with an earlier depth of the same label.
func hasFactorizedPeer(t *testing.T, g, p *graph.Graph, variant graph.Variant) bool {
	t.Helper()
	store := ccsr.Build(g)
	pl, err := plan.Optimize(p, store, variant, plan.ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.ReadCSR(p, variant)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(view, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range prog.levels {
		if lv.factorizable && lv.prevSame >= 0 {
			return true
		}
	}
	return false
}

func TestThroughputMetric(t *testing.T) {
	st := Stats{Embeddings: 100, Elapsed: 2 * time.Second}
	if st.Throughput() != 50 {
		t.Fatalf("throughput = %f, want 50", st.Throughput())
	}
	if (Stats{}).Throughput() != 0 {
		t.Fatal("zero elapsed must give zero throughput")
	}
}

func TestRunCountsTrianglesInK4(t *testing.T) {
	g := graph.Clique(4, 0)
	p := graph.Clique(3, 0)
	store := ccsr.Build(g)
	pl, err := plan.Optimize(p, store, graph.EdgeInduced, plan.ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.ReadCSR(p, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(view, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 24 {
		t.Fatalf("K3 in K4 = %d, want 24", st.Embeddings)
	}
}
