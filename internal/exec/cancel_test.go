package exec

import (
	"context"
	"testing"
	"time"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

// explodingFixture builds a search with a huge combinatorial space, for
// tests that must observe an abort mid-search.
func explodingFixture(t testing.TB) (*ccsr.View, *plan.Plan) {
	t.Helper()
	g := graph.Clique(40, 0)
	p := graph.Clique(6, 0)
	store := ccsr.Build(g)
	pl, err := plan.Optimize(p, store, graph.EdgeInduced, plan.ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.ReadCSR(p, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	return view, pl
}

func TestContextCancelStopsSearch(t *testing.T) {
	view, pl := explodingFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	st, err := Run(view, pl, Options{Ctx: ctx, DisableFactorization: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cancelled {
		t.Fatalf("expected Cancelled, stats: %+v", st)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not abort promptly (%v)", elapsed)
	}
}

func TestAlreadyCancelledContextDoesNoWork(t *testing.T) {
	view, pl := explodingFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := Run(view, pl, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cancelled {
		t.Fatalf("expected Cancelled, stats: %+v", st)
	}
	if st.Embeddings != 0 || st.Steps != 0 {
		t.Fatalf("dead context must do zero work, stats: %+v", st)
	}
}

// TestLimitExactSerial: the limit is exact even with factorized counting,
// whose multiplicative factors are clamped to the remaining budget.
func TestLimitExactSerial(t *testing.T) {
	g := graph.Clique(10, 0)
	p := graph.Path(3, 0)
	total := countCSCE(t, g, p, graph.EdgeInduced, Options{}).Embeddings
	if total < 100 {
		t.Fatalf("fixture too small: %d embeddings", total)
	}
	for _, factorized := range []bool{false, true} {
		for _, limit := range []uint64{1, 2, 3, 7, 50, total, total + 10} {
			st := countCSCE(t, g, p, graph.EdgeInduced, Options{Limit: limit, DisableFactorization: !factorized})
			want := limit
			if limit > total {
				want = total
			}
			if st.Embeddings != want {
				t.Fatalf("factorized=%v limit=%d: found %d, want exactly %d",
					factorized, limit, st.Embeddings, want)
			}
			if (limit <= total) != st.LimitHit {
				t.Fatalf("factorized=%v limit=%d: LimitHit=%v, total=%d",
					factorized, limit, st.LimitHit, total)
			}
		}
	}
}

// TestLimitExactWithCallback: when streaming embeddings through a
// callback, the consumer sees exactly the limit.
func TestLimitExactWithCallback(t *testing.T) {
	g := graph.Clique(10, 0)
	p := graph.Path(3, 0)
	store := ccsr.Build(g)
	pl, err := plan.Optimize(p, store, graph.EdgeInduced, plan.ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.ReadCSR(p, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	var seen uint64
	opts := Options{
		Limit:       17,
		OnEmbedding: func([]graph.VertexID) bool { seen++; return true },
	}
	st, err := Run(view, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 17 || st.Embeddings != 17 {
		t.Fatalf("callback saw %d, stats counted %d, want exactly 17", seen, st.Embeddings)
	}
}
