package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

// TestPropertyVariantOrdering: for any graph and pattern, the three
// variants' counts obey vertex-induced <= edge-induced <= homomorphic
// (every induced embedding is edge-induced; every edge-induced embedding
// is a homomorphism).
func TestPropertyVariantOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := rng.Intn(2) == 0
		g := randomGraph(rng, 10+rng.Intn(8), 30+rng.Intn(20), 1+rng.Intn(3), 1, directed)
		p := randomConnectedPattern(rng, 2+rng.Intn(4), 3, 1, directed)
		vi := countCSCE(t, g, p, graph.VertexInduced, Options{}).Embeddings
		ei := countCSCE(t, g, p, graph.EdgeInduced, Options{}).Embeddings
		ho := countCSCE(t, g, p, graph.Homomorphic, Options{}).Embeddings
		return vi <= ei && ei <= ho
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIsomorphismInvariance: permuting data-graph vertex IDs must
// not change any embedding count — the engine depends only on structure.
func TestPropertyIsomorphismInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := rng.Intn(2) == 0
		g := randomGraph(rng, 12, 36, 3, 2, directed)
		p := randomConnectedPattern(rng, 2+rng.Intn(3), 3, 2, directed)

		// Relabel data vertices by a random permutation.
		perm := rng.Perm(g.NumVertices())
		b := graph.NewBuilder(directed)
		labels := make([]graph.Label, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			labels[perm[v]] = g.Label(graph.VertexID(v))
		}
		for _, l := range labels {
			b.AddVertex(l)
		}
		g.Edges(func(v, w graph.VertexID, l graph.EdgeLabel) {
			b.AddEdge(graph.VertexID(perm[v]), graph.VertexID(perm[w]), l)
		})
		g2 := b.MustBuild()

		for _, variant := range graph.Variants() {
			a := countCSCE(t, g, p, variant, Options{}).Embeddings
			c := countCSCE(t, g2, p, variant, Options{}).Embeddings
			if a != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEmbeddingsAreValid: every enumerated edge-induced embedding
// satisfies labels, injectivity, and all pattern edges.
func TestPropertyEmbeddingsAreValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := rng.Intn(2) == 0
		g := randomGraph(rng, 12, 40, 2, 1, directed)
		p := randomConnectedPattern(rng, 2+rng.Intn(3), 2, 1, directed)
		ok := true
		countCSCE(t, g, p, graph.EdgeInduced, Options{
			OnEmbedding: func(m []graph.VertexID) bool {
				seen := map[graph.VertexID]bool{}
				for u := 0; u < p.NumVertices(); u++ {
					v := m[u]
					if seen[v] || g.Label(v) != p.Label(graph.VertexID(u)) {
						ok = false
						return false
					}
					seen[v] = true
				}
				p.Edges(func(a, b graph.VertexID, l graph.EdgeLabel) {
					if !g.HasEdgeLabeled(m[a], m[b], l) {
						ok = false
					}
				})
				return ok
			},
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLimitNeverExceededWithoutFactorization: with factorization
// off, Limit is exact.
func TestPropertyLimitNeverExceeded(t *testing.T) {
	f := func(seed int64, rawLimit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		limit := uint64(rawLimit%20) + 1
		g := randomGraph(rng, 12, 48, 1, 1, false)
		p := randomConnectedPattern(rng, 3, 1, 1, false)
		st := countCSCE(t, g, p, graph.EdgeInduced, Options{
			Limit:                limit,
			DisableFactorization: true,
		})
		return st.Embeddings <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPlanOrderIndependence: the count does not depend on which
// valid matching order executes — compare the CSCE plan against a plan
// built from the identity order.
func TestPropertyPlanOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12, 40, 2, 1, false)
		p := randomConnectedPattern(rng, 4, 2, 1, false)
		store := ccsr.Build(g)
		view, err := store.ReadCSR(p, graph.EdgeInduced)
		if err != nil {
			return false
		}
		optimized, err := plan.Optimize(p, store, graph.EdgeInduced, plan.ModeCSCE)
		if err != nil {
			return false
		}
		// The identity order may have disconnected prefixes; FromOrder and
		// the executor must still count correctly (depth-0 pool plus
		// intersection handles any topological arrangement of H)... the
		// identity order is only valid when it is a TO of H and keeps a
		// connected prefix, so fall back to the GCF order reversed within
		// ties instead: use ModeRM as the alternative plan.
		alt, err := plan.Optimize(p, store, graph.EdgeInduced, plan.ModeRM)
		if err != nil {
			return false
		}
		a, err := Run(view, optimized, Options{})
		if err != nil {
			return false
		}
		b, err := Run(view, alt, Options{})
		if err != nil {
			return false
		}
		return a.Embeddings == b.Embeddings
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
