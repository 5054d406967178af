package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"csce/internal/baseline"
	"csce/internal/ccsr"
	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/plan"
)

// TestPropertyStagedChainIsExact is the differential net under the staged
// filter chain: on random directed and undirected graphs with several edge
// labels, every variant's count must equal the brute-force oracle and a
// run that recomputes every stage (DisableSCECache), with and without
// factorization, symmetry constraints, pins and limits. Most patterns are
// sampled from the graph itself, so they have embeddings to get wrong.
func TestPropertyStagedChainIsExact(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		labels := 1 + rng.Intn(3)
		edgeLabels := 1 + rng.Intn(3)
		g := randomGraph(rng, 9+rng.Intn(5), 30+rng.Intn(20), labels, edgeLabels, directed)
		size := 3 + rng.Intn(3)
		p, err := dataset.SamplePattern(g, size, rng.Intn(2) == 0, rng)
		if err != nil {
			p = randomConnectedPattern(rng, size, labels, edgeLabels, directed)
		}
		store := ccsr.Build(g)
		for _, variant := range graph.Variants() {
			pl, err := plan.Optimize(p, store, variant, plan.ModeCSCE)
			if err != nil {
				t.Fatal(err)
			}
			checkStagedExact(t, fmt.Sprintf("seed %d %v", seed, variant), g, store, pl)
		}
	}
}

// TestStagedNECAliasSurvivesDeeperRebuilds pins the order c, l1, z, w, l2 on
// a star-plus-path pattern: l2 is NEC-equivalent to l1 with the same
// parent, so it reads l1's chain, and it does so after the levels of z and
// w, which sit between them, rebuilt their own chains for every l1.
func TestStagedNECAliasSurvivesDeeperRebuilds(t *testing.T) {
	b := graph.NewBuilder(false)
	c := b.AddVertex(0)
	var zs []graph.VertexID
	for i := 0; i < 4; i++ {
		b.AddEdge(c, b.AddVertex(1), 0) // leaves
	}
	for i := 0; i < 3; i++ {
		z := b.AddVertex(2)
		b.AddEdge(c, z, 0)
		zs = append(zs, z)
	}
	for i := 0; i < 5; i++ {
		w := b.AddVertex(3)
		for j, z := range zs {
			if (i+j)%2 == 0 {
				b.AddEdge(z, w, 0)
			}
		}
	}
	g := b.MustBuild()
	p := graph.MustParse("t undirected\nv 0 C\nv 1 L\nv 2 L\nv 3 Z\nv 4 W\ne 0 1\ne 0 2\ne 0 3\ne 3 4\n")
	store := ccsr.Build(g)
	order := []graph.VertexID{0, 1, 3, 4, 2}
	for _, variant := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
		pl, err := plan.FromOrder(p, store, variant, order)
		if err != nil {
			t.Fatal(err)
		}
		checkStagedExact(t, variant.String(), g, store, pl)
		view, err := store.ReadCSR(p, variant)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Run(view, pl, Options{DisableFactorization: true, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		lv := st.Profile.Levels
		if lv[4].NECShares == 0 || lv[3].CandidateBuilds <= lv[1].CandidateBuilds {
			t.Fatalf("%v: the alias must be read after deeper rebuilds; profile:\n%s", variant, st.Profile)
		}
	}
}

// TestStagedNegationShallowerThanLead covers a vertex-induced level whose
// negation parent precedes its only positive parent: on the order a, b, c
// of the path a-b-c, c's chain is the row of f(b) first and the
// non-adjacency to f(a) second.
func TestStagedNegationShallowerThanLead(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 12, 26, 1, 1, false)
	p := graph.Path(3, 0)
	store := ccsr.Build(g)
	pl, err := plan.FromOrder(p, store, graph.VertexInduced, []graph.VertexID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.ReadCSR(p, graph.VertexInduced)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(view, pl, nil)
	if err != nil || prog.levels == nil {
		t.Fatalf("compile: %v", err)
	}
	st := prog.chain(2)
	if len(st) != 2 || st[0].negate || st[0].depth != 1 || !st[1].negate || st[1].depth != 0 {
		t.Fatalf("level 2 chain = %+v, want the row of depth 1 then the negation of depth 0", st)
	}
	if want := baseline.BruteForce(g, p, graph.VertexInduced); want == 0 {
		t.Fatal("fixture has no induced 3-paths")
	}
	checkStagedExact(t, "path", g, store, pl)
}

// checkStagedExact runs pl under every option combination the staged chain
// must be invisible to and compares each count with the oracle.
func checkStagedExact(t *testing.T, name string, g *graph.Graph, store *ccsr.Store, pl *plan.Plan) {
	t.Helper()
	p, variant := pl.Pattern, pl.Variant
	view, err := store.ReadCSR(p, variant)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) Stats {
		t.Helper()
		st, err := Run(view, pl, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return st
	}
	want := baseline.BruteForce(g, p, variant)
	for _, opts := range []Options{{}, {DisableSCECache: true}, {DisableFactorization: true}, {DisableSCECache: true, DisableFactorization: true}} {
		if got := run(opts).Embeddings; got != want {
			t.Fatalf("%s %+v: %d embeddings, brute force %d", name, opts, got, want)
		}
	}
	if want > 1 {
		limit := want / 2
		for _, noCache := range []bool{false, true} {
			if got := run(Options{Limit: limit, DisableSCECache: noCache}).Embeddings; got != limit {
				t.Fatalf("%s limit %d (no cache %v): %d embeddings", name, limit, noCache, got)
			}
		}
	}
	// Recomputing every stage yields the same candidate lists in the same
	// order, so the two runs take the same steps.
	for _, noFact := range []bool{false, true} {
		staged := run(Options{DisableFactorization: noFact})
		full := run(Options{DisableFactorization: noFact, DisableSCECache: true})
		if staged.Steps != full.Steps {
			t.Fatalf("%s (no factorization %v): %d steps staged, %d recomputing every stage", name, noFact, staged.Steps, full.Steps)
		}
	}
	// Pins: every embedding maps the last-ordered vertex somewhere, so the
	// pinned counts over all data vertices add up to the total.
	u := pl.Order[len(pl.Order)-1]
	for _, noCache := range []bool{false, true} {
		var sum uint64
		for v := 0; v < g.NumVertices(); v++ {
			pin := [][2]graph.VertexID{{u, graph.VertexID(v)}}
			sum += run(Options{Pinned: pin, DisableSCECache: noCache}).Embeddings
		}
		if sum != want {
			t.Fatalf("%s (no cache %v): pinned counts of u%d sum to %d, brute force %d", name, noCache, u, sum, want)
		}
	}
	// Symmetry: an injective embedding has f(a) < f(b) or f(b) < f(a).
	if variant.Injective() && p.NumVertices() >= 2 {
		a, b := pl.Order[0], pl.Order[len(pl.Order)-1]
		for _, noCache := range []bool{false, true} {
			lt := run(Options{SymmetryConstraints: [][2]graph.VertexID{{a, b}}, DisableSCECache: noCache}).Embeddings
			gt := run(Options{SymmetryConstraints: [][2]graph.VertexID{{b, a}}, DisableSCECache: noCache}).Embeddings
			if lt+gt != want {
				t.Fatalf("%s (no cache %v): f(u%d)<f(u%d) %d + reverse %d != %d", name, noCache, a, b, lt, gt, want)
			}
		}
	}
}
