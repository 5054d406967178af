package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"csce/internal/baseline"
	"csce/internal/dataset"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/plan"
)

func TestEngineEndToEnd(t *testing.T) {
	g := graph.Clique(6, 0)
	e := NewEngine(g)
	res, err := e.Match(graph.Clique(3, 0), MatchOptions{Variant: graph.EdgeInduced})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 120 {
		t.Fatalf("K3 in K6 = %d, want 120", res.Embeddings)
	}
	if res.Plan == nil || res.ClustersRead == 0 || res.ViewBytes == 0 {
		t.Fatalf("result metadata incomplete: %+v", res)
	}
	if res.Total() < res.ExecTime {
		t.Fatal("total time must include all stages")
	}
}

func TestEngineMatchesBruteForceOnDatasetSample(t *testing.T) {
	// End-to-end differential test on a realistic (small) dataset.
	spec := dataset.Spec{Name: "mini", Kind: dataset.PPI, Vertices: 60, TargetEdges: 180, VertexLabels: 4, Seed: 9}
	g := spec.Generate()
	e := NewEngine(g)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		p, err := dataset.SamplePattern(g, 4, i%2 == 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range graph.Variants() {
			want := baseline.BruteForce(g, p, variant)
			got, err := e.Count(p, variant)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pattern %d %v: engine %d, oracle %d", i, variant, got, want)
			}
		}
	}
}

func TestEngineSaveLoad(t *testing.T) {
	spec := dataset.Spec{Name: "mini", Kind: dataset.PowerLaw, Vertices: 80, TargetEdges: 240, VertexLabels: 3, Seed: 4}
	g := spec.Generate()
	e := NewEngine(g)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	p, err := dataset.SamplePattern(g, 5, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Count(p, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.Count(p, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("save/load changed the count: %d vs %d", a, b)
	}
}

func TestEngineSymmetryBreaking(t *testing.T) {
	g := graph.Clique(7, 0)
	e := NewEngine(g)
	p := graph.Clique(4, 0)
	plainRes, err := e.Match(p, MatchOptions{Variant: graph.EdgeInduced})
	if err != nil {
		t.Fatal(err)
	}
	symRes, err := e.Match(p, MatchOptions{Variant: graph.EdgeInduced, SymmetryBreaking: true})
	if err != nil {
		t.Fatal(err)
	}
	if symRes.Automorphisms != 24 {
		t.Fatalf("Aut(K4) = %d, want 24", symRes.Automorphisms)
	}
	if plainRes.Embeddings != symRes.Embeddings*uint64(symRes.Automorphisms) {
		t.Fatalf("mappings (%d) must equal instances (%d) x |Aut| (%d)",
			plainRes.Embeddings, symRes.Embeddings, symRes.Automorphisms)
	}
}

func TestEnginePlanOnly(t *testing.T) {
	spec := dataset.Spec{Name: "mini", Kind: dataset.PowerLaw, Vertices: 100, TargetEdges: 300, VertexLabels: 5, Seed: 6}
	g := spec.Generate()
	e := NewEngine(g)
	rng := rand.New(rand.NewSource(7))
	p, err := dataset.SamplePattern(g, 12, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range graph.Variants() {
		pl, elapsed, err := e.PlanOnly(p, variant)
		if err != nil {
			t.Fatal(err)
		}
		if pl == nil || elapsed <= 0 {
			t.Fatal("plan-only must produce a plan and a duration")
		}
		if pl.Mode != plan.ModeCSCE {
			t.Fatal("plan-only must run the full pipeline")
		}
	}
}

func TestEngineTimeLimitPropagates(t *testing.T) {
	g := graph.Clique(40, 0)
	e := NewEngine(g)
	res, err := e.Match(graph.Clique(6, 0), MatchOptions{
		Variant:              graph.EdgeInduced,
		TimeLimit:            20 * time.Millisecond,
		DisableFactorization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exec.TimedOut {
		t.Fatalf("expected timeout: %+v", res.Exec)
	}
}

// TestEngineIncrementalUpdates mutates the clustered graph through the
// engine and checks that matching results always equal the brute-force
// oracle on an equivalently mutated plain graph.
func TestEngineIncrementalUpdates(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		n := 12
		b := graph.NewBuilder(directed)
		labels := make([]graph.Label, n)
		for i := range labels {
			labels[i] = graph.Label(rng.Intn(3))
			b.AddVertex(labels[i])
		}
		type edge struct {
			s, d graph.VertexID
			l    graph.EdgeLabel
		}
		edges := map[edge]bool{}
		for i := 0; i < 30; i++ {
			v, w := rng.Intn(n), rng.Intn(n)
			if v == w {
				continue
			}
			e := edge{graph.VertexID(v), graph.VertexID(w), 0}
			if directed {
				if edges[e] {
					continue
				}
			} else if edges[e] || edges[edge{e.d, e.s, 0}] {
				continue
			}
			edges[e] = true
			b.AddEdge(e.s, e.d, e.l)
		}
		g := b.MustBuild()
		engine := NewEngine(g)

		// Small two-label path pattern with the data graph's directedness.
		pb := graph.NewBuilder(directed)
		pb.AddVertex(0)
		pb.AddVertex(1)
		pb.AddVertex(0)
		pb.AddEdge(0, 1, 0)
		pb.AddEdge(1, 2, 0)
		p := pb.MustBuild()
		rebuild := func() *graph.Graph {
			nb := graph.NewBuilder(directed)
			for _, l := range labels {
				nb.AddVertex(l)
			}
			for e := range edges {
				nb.AddEdge(e.s, e.d, e.l)
			}
			return nb.MustBuild()
		}
		for step := 0; step < 20; step++ {
			v, w := rng.Intn(n), rng.Intn(n)
			if v == w {
				continue
			}
			e := edge{graph.VertexID(v), graph.VertexID(w), 0}
			present := edges[e]
			if !directed && !present {
				present = edges[edge{e.d, e.s, 0}]
			}
			if present {
				// Delete whichever orientation is stored.
				del := e
				if !edges[del] {
					del = edge{e.d, e.s, 0}
				}
				if err := engine.DeleteEdge(del.s, del.d, del.l); err != nil {
					t.Fatalf("seed %d: delete: %v", seed, err)
				}
				delete(edges, del)
			} else {
				if err := engine.InsertEdge(e.s, e.d, e.l); err != nil {
					t.Fatalf("seed %d: insert: %v", seed, err)
				}
				edges[e] = true
			}
			for _, variant := range graph.Variants() {
				want := baseline.BruteForce(rebuild(), p, variant)
				got, err := engine.Count(p, variant)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d step %d %v: engine %d, oracle %d", seed, step, variant, got, want)
				}
			}
		}
	}
}

func TestEngineRejectsMismatchedPattern(t *testing.T) {
	e := NewEngine(graph.Clique(5, 0)) // undirected
	p := graph.MustParse("t directed\nv 0 A\nv 1 A\ne 0 1\n")
	if _, err := e.Match(p, MatchOptions{}); err == nil {
		t.Fatal("directedness mismatch must surface as an error")
	}
	disc := graph.NewBuilder(false)
	disc.AddVertices(3, 0)
	disc.AddEdge(0, 1, 0)
	if _, err := e.Match(disc.MustBuild(), MatchOptions{}); err == nil {
		t.Fatal("disconnected pattern must surface as an error")
	}
}

func TestMatchProfileOption(t *testing.T) {
	e := NewEngine(graph.Clique(6, 0))
	res, err := e.Match(graph.Clique(3, 0), MatchOptions{Variant: graph.EdgeInduced, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || len(res.Profile.Levels) != 3 {
		t.Fatalf("profile missing: %+v", res.Profile)
	}
	if res.Embeddings != 120 {
		t.Fatalf("profiled count = %d, want 120", res.Embeddings)
	}
}

// TestEngineSaveLoadLabelEquivalence is the regression test for the CCSR
// index round-trip bug: a pattern whose label names appear in a different
// order than the data graph's used to intern to different label values
// against a reloaded index (the table was not serialized), silently
// matching the wrong clusters — 1 embedding direct vs 3 via the index on
// this fixture. Save/load must preserve match results for patterns parsed
// from text against either engine.
func TestEngineSaveLoadLabelEquivalence(t *testing.T) {
	// L46 has three L30 neighbors and L30 has one L7 neighbor, so a
	// label-value swap changes counts in both directions.
	g, err := graph.ParseString("t undirected\n" +
		"v 0 L46\nv 1 L30\nv 2 L30\nv 3 L30\nv 4 L7\n" +
		"e 0 1\ne 0 2\ne 0 3\ne 1 4\n")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Names() == nil {
		t.Fatal("loaded engine lost its label table")
	}
	// Patterns are parsed from text per engine, exactly as cscematch and
	// csced do — the pattern's label discovery order (L30 before L7, both
	// before L46) deliberately differs from the data graph's.
	for _, patText := range []string{
		"t undirected\nv 0 L30\nv 1 L7\ne 0 1\n",
		"t undirected\nv 0 L30\nv 1 L46\ne 0 1\n",
		"t undirected\nv 0 L7\nv 1 L30\nv 2 L46\ne 0 1\ne 1 2\n",
	} {
		parse := func(e *Engine) *graph.Graph {
			p, err := graph.ParseStringWith(patText, e.Names())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		for _, variant := range graph.Variants() {
			direct, err := e.Count(parse(e), variant)
			if err != nil {
				t.Fatal(err)
			}
			viaIndex, err := e2.Count(parse(e2), variant)
			if err != nil {
				t.Fatal(err)
			}
			if direct != viaIndex {
				t.Fatalf("pattern %q %v: direct %d vs reloaded index %d",
					patText, variant, direct, viaIndex)
			}
		}
	}
}

// TestMatchCompiledProgram: a program compiled by one Match serves later
// tasks on the same engine with the same counts and the view's cluster
// count, without a read; it refuses another variant, and a write to the
// engine retires it.
func TestMatchCompiledProgram(t *testing.T) {
	e := NewEngine(graph.Clique(6, 0))
	tri := graph.Clique(3, 0)
	first, err := e.Match(tri, MatchOptions{Variant: graph.VertexInduced, Compile: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Program == nil || first.Embeddings != 120 {
		t.Fatalf("compiling match: program %v, %d embeddings; want a program and 120", first.Program, first.Embeddings)
	}
	for _, opts := range []MatchOptions{
		{Variant: graph.VertexInduced},
		{Variant: graph.VertexInduced, SymmetryBreaking: true},
		{Variant: graph.VertexInduced, Limit: 7},
	} {
		want, err := e.Match(tri, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Program = first.Program
		got, err := e.Match(tri, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Embeddings != want.Embeddings || got.Exec.Steps != want.Exec.Steps ||
			got.ClustersRead != want.ClustersRead || got.ViewBytes != want.ViewBytes || got.Program != nil {
			t.Errorf("%+v: program run %+v, one-shot %+v", opts, got, want)
		}
	}
	if _, err := e.Match(tri, MatchOptions{Variant: graph.EdgeInduced, Program: first.Program}); err == nil {
		t.Error("a vertex-induced program ran an edge-induced task")
	}
	if err := e.DeleteEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Match(tri, MatchOptions{Variant: graph.VertexInduced, Program: first.Program}); !errors.Is(err, exec.ErrForeignStore) {
		t.Errorf("a program ran after a write to its store: %v", err)
	}
}
