package exec

import (
	"math/rand"
	"strings"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

func TestRunWithProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 40, 160, 3, 1, false)
	p := randomConnectedPattern(rng, 5, 3, 1, false)
	store := ccsr.Build(g)
	pl, err := plan.Optimize(p, store, graph.EdgeInduced, plan.ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.ReadCSR(p, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(view, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(view, pl, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Profile == nil {
		t.Fatal("Options.Profile set, Stats.Profile nil")
	}
	prof := st.Profile
	if st.Embeddings != plain.Embeddings {
		t.Fatalf("profiling changed the count: %d vs %d", st.Embeddings, plain.Embeddings)
	}
	if len(prof.Levels) != p.NumVertices() {
		t.Fatalf("profile has %d levels, want %d", len(prof.Levels), p.NumVertices())
	}
	// Per-level counters must sum to the global ones.
	var steps, builds, reuses, nec uint64
	for _, lv := range prof.Levels {
		steps += lv.Steps
		builds += lv.CandidateBuilds
		reuses += lv.CandidateReuses
		nec += lv.NECShares
	}
	if steps != st.Steps || builds != st.CandidateBuilds ||
		reuses != st.CandidateReuses || nec != st.NECShares {
		t.Fatalf("per-level sums diverge: steps %d/%d builds %d/%d reuses %d/%d nec %d/%d",
			steps, st.Steps, builds, st.CandidateBuilds, reuses, st.CandidateReuses, nec, st.NECShares)
	}
	// Every plan vertex appears once, in order.
	for i, lv := range prof.Levels {
		if lv.Vertex != pl.Order[i] {
			t.Fatalf("level %d profiles u%d, want u%d", i, lv.Vertex, pl.Order[i])
		}
	}
	out := prof.String()
	if !strings.Contains(out, "steps") || strings.Count(out, "\n") < p.NumVertices() {
		t.Fatalf("profile table malformed:\n%s", out)
	}
}

func TestRunWithProfileEmptyResult(t *testing.T) {
	g := graph.MustParse("t undirected\nv 0 A\nv 1 B\ne 0 1\n")
	p, err := graph.ParseStringWith("t undirected\nv 0 A\nv 1 C\ne 0 1\n", g.Names)
	if err != nil {
		t.Fatal(err)
	}
	store := ccsr.Build(g)
	pl, err := plan.Optimize(p, store, graph.EdgeInduced, plan.ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.ReadCSR(p, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(view, pl, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Embeddings != 0 || st.Profile != nil {
		t.Fatalf("empty result must yield no profile: %+v", st.Profile)
	}
}
