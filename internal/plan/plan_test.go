package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/graph"
)

func fig1Data(t testing.TB) (*graph.Graph, *ccsr.Store) {
	t.Helper()
	g, err := graph.ParseString(`
t directed
v 0 A
v 1 B
v 2 C
v 3 A
v 4 B
v 5 B
v 6 D
v 7 C
v 8 A
v 9 C
e 0 1
e 0 5
e 0 2
e 0 9
e 6 0
e 3 4
e 3 2
e 1 2
e 4 7
e 8 7
e 8 9
`)
	if err != nil {
		t.Fatal(err)
	}
	return g, ccsr.Build(g)
}

// paperPattern approximates the paper's Fig. 1 pattern P: 8 vertices,
// u1(A)->u2(B), u1->u3(C), u1-u6, u1-u7(D) region structure. Exact topology
// differs from the (unpublished) original; tests only rely on structural
// invariants.
func paperPattern(t testing.TB) *graph.Graph {
	t.Helper()
	p, err := graph.ParseString(`
t directed
v 0 A
v 1 B
v 2 C
v 3 B
v 4 C
v 5 A
v 6 D
v 7 A
e 0 1
e 0 2
e 0 5
e 6 0
e 1 3
e 3 4
e 5 7
e 7 4
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomConnectedPattern(seed int64, n, labels int, directed bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(directed)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	// Random spanning tree keeps it connected.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		if directed && rng.Intn(2) == 0 {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j), 0)
		} else {
			b.AddEdge(graph.VertexID(j), graph.VertexID(i), 0)
		}
	}
	extra := rng.Intn(n)
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j), 0)
		}
	}
	return b.MustBuild()
}

func TestGCFIsPermutationAndConnected(t *testing.T) {
	g, store := fig1Data(t)
	_ = g
	for seed := int64(0); seed < 10; seed++ {
		p := randomConnectedPattern(seed, 8+int(seed), 4, true)
		order := GCF(p, store)
		checkPermutation(t, order, p.NumVertices())
		// Every vertex after the first must touch an earlier vertex
		// (connectivity of the prefix), which GCF's T1 rule guarantees for
		// connected patterns.
		for j := 1; j < len(order); j++ {
			touched := false
			for i := 0; i < j; i++ {
				if p.Adjacent(order[i], order[j]) {
					touched = true
					break
				}
			}
			if !touched {
				t.Fatalf("seed %d: order position %d (%d) has no earlier neighbor", seed, j, order[j])
			}
		}
	}
}

func TestGCFStartsAtMaxDegree(t *testing.T) {
	p := paperPattern(t)
	order := GCF(p, nil)
	maxDeg := 0
	for v := 0; v < p.NumVertices(); v++ {
		if d := p.Degree(graph.VertexID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if p.Degree(order[0]) != maxDeg {
		t.Fatalf("GCF must start at a max-degree vertex: got deg %d, max %d",
			p.Degree(order[0]), maxDeg)
	}
}

func TestGCFClusterTieBreakUsesData(t *testing.T) {
	// Two vertices tie on all RI rules; the cluster tie-break must pick the
	// one whose edge cluster is smaller in the data graph.
	data := graph.MustParse(`
t undirected
v 0 A
v 1 B
v 2 B
v 3 B
v 4 C
v 5 A
e 0 1
e 0 2
e 0 3
e 5 4
e 0 4
`)
	store := ccsr.Build(data)
	// Pattern: center A adjacent to B and C. B-cluster has 3 edges,
	// C-cluster has 2 -> after the center, C must be preferred.
	p := graph.MustParse(`
t undirected
v 0 A
v 1 B
v 2 C
e 0 1
e 0 2
`)
	order := GCF(p, store)
	if order[0] != 0 {
		t.Fatalf("center must come first, got %v", order)
	}
	if order[1] != 2 {
		t.Fatalf("cluster tie-break must prefer the C vertex (smaller cluster): %v", order)
	}
	// Without the store, the tie falls to the smaller vertex ID.
	orderRI := GCF(p, nil)
	if orderRI[1] != 1 {
		t.Fatalf("pure RI tie-break must pick smallest ID: %v", orderRI)
	}
}

func TestBuildDAGEdgeInduced(t *testing.T) {
	_, store := fig1Data(t)
	p := paperPattern(t)
	order := GCF(p, store)
	h := BuildDAG(store, p, order, graph.EdgeInduced)
	// Edge-induced H has exactly one dependency per pattern edge.
	if h.NumEdges() != p.NumEdges() {
		t.Fatalf("edge-induced H has %d edges, want |E_P| = %d", h.NumEdges(), p.NumEdges())
	}
	if !h.IsTopologicalOrder(order) {
		t.Fatal("the defining order must be a topological order of H")
	}
	// Every dependency edge corresponds to a pattern adjacency.
	for u := 0; u < h.N(); u++ {
		for _, w := range h.Out(u) {
			if !p.Adjacent(graph.VertexID(u), graph.VertexID(w)) {
				t.Fatalf("H edge (%d,%d) without pattern edge", u, w)
			}
		}
	}
}

func TestBuildDAGVertexInducedAddsNegationDeps(t *testing.T) {
	_, store := fig1Data(t)
	p := paperPattern(t)
	order := GCF(p, store)
	he := BuildDAG(store, p, order, graph.EdgeInduced)
	hv := BuildDAG(store, p, order, graph.VertexInduced)
	if hv.NumEdges() < he.NumEdges() {
		t.Fatal("vertex-induced H cannot have fewer dependencies than edge-induced")
	}
	if !hv.IsTopologicalOrder(order) {
		t.Fatal("order must remain a TO of the augmented H")
	}
	// A nil store must add all non-adjacent pairs conservatively.
	hAll := BuildDAG(nil, p, order, graph.VertexInduced)
	n := p.NumVertices()
	if want := n * (n - 1) / 2; hAll.NumEdges() != want {
		t.Fatalf("conservative vertex-induced H has %d edges, want %d", hAll.NumEdges(), want)
	}
}

func TestBuildDAGEmptyClusterSkipsNegationDep(t *testing.T) {
	// Data graph has no D-D edges, so two non-adjacent D pattern vertices
	// stay independent in the vertex-induced DAG (Algorithm 2 line 8).
	data := graph.MustParse(`
t undirected
v 0 A
v 1 D
v 2 D
e 0 1
e 0 2
`)
	store := ccsr.Build(data)
	p := graph.MustParse(`
t undirected
v 0 A
v 1 D
v 2 D
e 0 1
e 0 2
`)
	order := []graph.VertexID{0, 1, 2}
	h := BuildDAG(store, p, order, graph.VertexInduced)
	if h.HasEdge(1, 2) || h.HasEdge(2, 1) {
		t.Fatal("empty (D,D)*-clusters must not create a dependency")
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(0, 2) {
		t.Fatal("pattern-edge dependencies missing")
	}
}

func TestDescendantSizes(t *testing.T) {
	// Chain a->b->c plus a->c: desc(a)={b,c}, desc(b)={c}, desc(c)={}.
	d := NewDAG(3)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(0, 2)
	sizes := d.DescendantSizes()
	if sizes[0] != 2 || sizes[1] != 1 || sizes[2] != 0 {
		t.Fatalf("descendant sizes = %v, want [2 1 0]", sizes)
	}
	// Shared descendants are counted once (diamond).
	dd := NewDAG(4)
	dd.AddEdge(0, 1)
	dd.AddEdge(0, 2)
	dd.AddEdge(1, 3)
	dd.AddEdge(2, 3)
	s := dd.DescendantSizes()
	if s[0] != 3 {
		t.Fatalf("diamond root descendant size = %d, want 3", s[0])
	}
}

func TestDescendantSizesMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		d := NewDAG(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					d.AddEdge(i, j)
				}
			}
		}
		sizes := d.DescendantSizes()
		for v := 0; v < n; v++ {
			brute := 0
			for w := 0; w < n; w++ {
				if w != v && reaches(d, v, w) {
					brute++
				}
			}
			if sizes[v] != brute {
				t.Fatalf("seed %d: desc size of %d = %d, brute force %d", seed, v, sizes[v], brute)
			}
		}
	}
}

// reaches reports whether a path u ->* w exists in d, by a fresh
// depth-first search: the brute-force reference for descendant sets.
func reaches(d *DAG, u, w int) bool {
	seen := make([]bool, d.N())
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range d.Out(x) {
			if int(c) == w {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, int(c))
			}
		}
	}
	return false
}

func TestGeneratePlanIsTopologicalOrder(t *testing.T) {
	_, store := fig1Data(t)
	for seed := int64(0); seed < 10; seed++ {
		p := randomConnectedPattern(seed, 10, 4, true)
		for _, variant := range graph.Variants() {
			initial := GCF(p, store)
			h := BuildDAG(store, p, initial, variant)
			order := GeneratePlan(h, h.DescendantSizes(), store, p)
			checkPermutation(t, order, p.NumVertices())
			if !h.IsTopologicalOrder(order) {
				t.Fatalf("seed %d %v: LDSF order is not a TO of H", seed, variant)
			}
		}
	}
}

func TestGeneratePlanPrefersLargeDescendants(t *testing.T) {
	// H: 0->{1,2}; 1->{3,4}; 2->{} — after 0, LDSF must pick 1 (descendant
	// size 2) before 2 (size 0).
	d := NewDAG(5)
	d.AddEdge(0, 1)
	d.AddEdge(0, 2)
	d.AddEdge(1, 3)
	d.AddEdge(1, 4)
	p := graph.MustParse(`
t undirected
v 0 A
v 1 B
v 2 B
v 3 C
v 4 C
e 0 1
e 0 2
e 1 3
e 1 4
`)
	order := GeneratePlan(d, d.DescendantSizes(), nil, p)
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("LDSF order = %v, want vertex 1 right after root", order)
	}
}

func TestOptimizePipeline(t *testing.T) {
	g, store := fig1Data(t)
	_ = g
	p := paperPattern(t)
	for _, variant := range graph.Variants() {
		for _, mode := range []Mode{ModeCSCE, ModeRI, ModeRICluster, ModeRM, ModeCostBased} {
			pl, err := Optimize(p, store, variant, mode)
			if err != nil {
				t.Fatalf("%v/%v: %v", variant, mode, err)
			}
			checkPermutation(t, pl.Order, p.NumVertices())
			if !pl.DAG.IsTopologicalOrder(pl.Order) {
				t.Fatalf("%v/%v: order not a TO of its DAG", variant, mode)
			}
			if pl.SCE.PatternVertices != p.NumVertices() {
				t.Fatalf("%v/%v: SCE stats incomplete", variant, mode)
			}
		}
	}
}

func TestOptimizeRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddVertices(4, 0)
	b.AddEdge(0, 1, 0)
	if _, err := Optimize(b.MustBuild(), nil, graph.EdgeInduced, ModeRI); err == nil {
		t.Fatal("disconnected pattern must be rejected")
	}
}

func TestFromOrderValidation(t *testing.T) {
	p := paperPattern(t)
	if _, err := FromOrder(p, nil, graph.EdgeInduced, []graph.VertexID{0, 1}); err == nil {
		t.Fatal("short order must be rejected")
	}
	bad := make([]graph.VertexID, p.NumVertices())
	if _, err := FromOrder(p, nil, graph.EdgeInduced, bad); err == nil {
		t.Fatal("non-permutation must be rejected")
	}
	good := make([]graph.VertexID, p.NumVertices())
	for i := range good {
		good[i] = graph.VertexID(i)
	}
	pl, err := FromOrder(p, nil, graph.EdgeInduced, good)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.DAG.IsTopologicalOrder(pl.Order) {
		t.Fatal("identity order must be a TO of its own DAG")
	}
}

func TestSCEStatsHomomorphicAtLeastEdgeInduced(t *testing.T) {
	// Finding 12: homomorphism exhibits at least as much SCE as the
	// edge-induced variant on the same pattern (its H never has more
	// edges). With the same GCF order the DAGs coincide for these two
	// variants, so compare against vertex-induced instead, whose H gains
	// negation dependencies and can only lose independence.
	_, store := fig1Data(t)
	for seed := int64(0); seed < 8; seed++ {
		p := randomConnectedPattern(seed, 9, 4, true)
		edge, err := Optimize(p, store, graph.EdgeInduced, ModeCSCE)
		if err != nil {
			t.Fatal(err)
		}
		vert, err := Optimize(p, store, graph.VertexInduced, ModeCSCE)
		if err != nil {
			t.Fatal(err)
		}
		if vert.SCE.IndependentPairs > edge.SCE.IndependentPairs {
			t.Fatalf("seed %d: vertex-induced independence (%d) exceeds edge-induced (%d)",
				seed, vert.SCE.IndependentPairs, edge.SCE.IndependentPairs)
		}
	}
}

func TestNECClasses(t *testing.T) {
	// A star with three identical leaves: leaves form one NEC class.
	star := graph.MustParse(`
t undirected
v 0 A
v 1 B
v 2 B
v 3 B
e 0 1
e 0 2
e 0 3
`)
	classes := NEC(star)
	if len(classes) != 2 {
		t.Fatalf("star has %d NEC classes, want 2 (center + leaves): %v", len(classes), classes)
	}
	var leafClass []graph.VertexID
	for _, c := range classes {
		if len(c) == 3 {
			leafClass = c
		}
	}
	if leafClass == nil {
		t.Fatalf("three leaves must share one class: %v", classes)
	}

	// A triangle's two base vertices adjacent to each other are equivalent.
	tri := graph.MustParse(`
t undirected
v 0 A
v 1 B
v 2 B
e 0 1
e 0 2
e 1 2
`)
	cls := NEC(tri)
	if len(cls) != 2 {
		t.Fatalf("triangle NEC classes = %v, want base pair together", cls)
	}

	// Different labels never share a class.
	mixed := graph.MustParse(`
t undirected
v 0 A
v 1 B
v 2 C
e 0 1
e 0 2
`)
	if got := len(NEC(mixed)); got != 3 {
		t.Fatalf("mixed-label NEC classes = %d, want 3", got)
	}

	// Directed edge asymmetry breaks equivalence.
	dir := graph.MustParse(`
t directed
v 0 A
v 1 B
v 2 B
e 0 1
e 2 0
`)
	if got := len(NEC(dir)); got != 3 {
		t.Fatalf("directed asymmetric NEC classes = %d, want 3", got)
	}
}

func TestRMOrderIsPermutation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p := randomConnectedPattern(seed, 12, 3, false)
		checkPermutation(t, RMOrder(p), p.NumVertices())
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{ModeCSCE: "CSCE", ModeRI: "RI", ModeRICluster: "RI+Cluster", ModeRM: "RM", ModeCostBased: "CostBased"}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("mode %d prints %q, want %q", m, m.String(), want)
		}
	}
}

func TestPlanStringAndPosition(t *testing.T) {
	_, store := fig1Data(t)
	p := paperPattern(t)
	pl, err := Optimize(p, store, graph.EdgeInduced, ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	if pl.String() == "" {
		t.Fatal("plan string empty")
	}
	for i, v := range pl.Order {
		if pl.PositionOf(v) != i {
			t.Fatal("PositionOf inconsistent with Order")
		}
	}
	if pl.PositionOf(99) != -1 {
		t.Fatal("PositionOf of unknown vertex must be -1")
	}
}

func checkPermutation(t *testing.T, order []graph.VertexID, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if int(v) >= n || seen[v] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[v] = true
	}
}

func TestAutomorphisms(t *testing.T) {
	if got := len(Automorphisms(graph.Clique(4, 0))); got != 24 {
		t.Fatalf("Aut(K4) = %d, want 24", got)
	}
	if got := len(Automorphisms(graph.Path(3, 0))); got != 2 {
		t.Fatalf("Aut(P3) = %d, want 2", got)
	}
	if got := len(Automorphisms(graph.Cycle(5))); got != 10 {
		t.Fatalf("Aut(C5) = %d, want 10 (dihedral)", got)
	}
	// Labels break symmetry.
	if got := len(Automorphisms(graph.Path(3, 1, 2, 3))); got != 1 {
		t.Fatalf("Aut of fully labeled path = %d, want 1", got)
	}
	// Directed cycle has only rotations.
	b := graph.NewBuilder(true)
	b.AddVertices(4, 0)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%4), 0)
	}
	if got := len(Automorphisms(b.MustBuild())); got != 4 {
		t.Fatalf("Aut of directed C4 = %d, want 4", got)
	}
}

func TestPlanDOT(t *testing.T) {
	_, store := fig1Data(t)
	p := paperPattern(t)
	pl, err := Optimize(p, store, graph.VertexInduced, ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	dot := pl.DOT()
	if !strings.HasPrefix(dot, "digraph H {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("malformed DOT:\n%s", dot)
	}
	for u := 0; u < p.NumVertices(); u++ {
		if !strings.Contains(dot, fmt.Sprintf("u%d [", u)) {
			t.Fatalf("vertex u%d missing from DOT", u)
		}
	}
	if strings.Count(dot, "->") < pl.DAG.NumEdges() {
		t.Fatal("DOT misses dependency edges")
	}
	// Vertex-induced plans have negation dependencies rendered dashed.
	if !strings.Contains(dot, "dashed") {
		t.Fatal("vertex-induced DOT should show dashed negation dependencies")
	}
}
