package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/dataset"
	"csce/internal/graph"
)

// The reference oracle: the straightforward quadratic form of every
// optimizer stage — rescore every unordered vertex per GCF step, rescan the
// LDSF ready set with ω recomputed per comparison, test every later vertex
// for NEC, walk every ordered pair for SCE and for the vertex-induced
// negation dependencies. The incremental optimizer must produce the same
// plans bit for bit.

// refOptimize is Optimize built from the reference stages.
func refOptimize(p *graph.Graph, store *ccsr.Store, variant graph.Variant, mode Mode) *Plan {
	var es *edgeSizes
	var initial []graph.VertexID
	switch mode {
	case ModeRM:
		initial = RMOrder(p)
	case ModeRI:
		initial = refGCF(refEdgeSizes(p, nil))
	case ModeCostBased:
		es = refEdgeSizes(p, store)
		initial = costBasedOrder(p, store, es)
	default:
		es = refEdgeSizes(p, store)
		initial = refGCF(es)
	}
	h := refBuildDAG(store, p, initial, variant)
	desc := h.DescendantSizes()
	order := initial
	if mode == ModeCSCE || mode == ModeCostBased {
		order = refGeneratePlan(h, desc, store, p, es)
	}
	pl := &Plan{Pattern: p, Variant: variant, Mode: mode, Order: order, DAG: h, DescendantSizes: desc, NECClasses: refNEC(p)}
	pl.SCE = refComputeSCE(pl, store)
	return pl
}

// refEdgeSizes builds the adjacency and edge cluster sizes from
// UndirectedNeighbors, one slice per vertex.
func refEdgeSizes(p *graph.Graph, store *ccsr.Store) *edgeSizes {
	n := p.NumVertices()
	es := &edgeSizes{nbrs: make([][]graph.VertexID, n), size: make([][]int, n)}
	for v := range es.nbrs {
		es.nbrs[v] = p.UndirectedNeighbors(graph.VertexID(v))
		es.size[v] = make([]int, len(es.nbrs[v]))
		for k, w := range es.nbrs[v] {
			es.size[v][k] = math.MaxInt
			if store != nil {
				es.size[v][k] = edgeClusterSize(p, store, graph.VertexID(v), w)
			}
		}
	}
	return es
}

// refGCF rescores every unordered vertex at every step.
func refGCF(es *edgeSizes) []graph.VertexID {
	n := len(es.nbrs)
	if n == 0 {
		return nil
	}
	inOrder := make([]bool, n)
	adjToOrder := make([]bool, n)
	t1 := make([]int, n)
	om1 := make([]int, n)
	for v := range om1 {
		om1[v] = math.MaxInt
	}
	take := func(order []graph.VertexID, u graph.VertexID) []graph.VertexID {
		inOrder[u] = true
		for k, w := range es.nbrs[u] {
			adjToOrder[w] = true
			if !inOrder[w] {
				t1[w]++
				om1[w] = min(om1[w], es.size[u][k])
			}
		}
		return append(order, u)
	}
	best, bestDeg, bestOmega := -1, -1, math.MaxInt
	for v := 0; v < n; v++ {
		deg, omega := len(es.nbrs[v]), es.minIncident(graph.VertexID(v))
		if deg > bestDeg || (deg == bestDeg && omega < bestOmega) {
			best, bestDeg, bestOmega = v, deg, omega
		}
	}
	order := take(make([]graph.VertexID, 0, n), graph.VertexID(best))
	for len(order) < n {
		var top *gcfScore
		for x := 0; x < n; x++ {
			if inOrder[x] {
				continue
			}
			s := gcfScore{v: graph.VertexID(x), t1: t1[x], om1: om1[x], om2: math.MaxInt, om3: math.MaxInt}
			for k, uj := range es.nbrs[x] {
				if inOrder[uj] {
					continue
				}
				if w := es.size[x][k]; adjToOrder[uj] {
					s.t2++
					s.om2 = min(s.om2, w)
				} else {
					s.t3++
					s.om3 = min(s.om3, w)
				}
			}
			if top == nil || gcfLess(top, &s) {
				cp := s
				top = &cp
			}
		}
		order = take(order, top.v)
	}
	return order
}

// refGeneratePlan rescans the ready set, recomputing ω per comparison.
func refGeneratePlan(h *DAG, descSizes []int, store *ccsr.Store, p *graph.Graph, es *edgeSizes) []graph.VertexID {
	n := h.N()
	order := make([]graph.VertexID, 0, n)
	inOrder := make([]bool, n)
	indeg := make([]int, n)
	var ready []int
	for v := 0; v < n; v++ {
		if indeg[v] = len(h.In(v)); indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	labelFreq := func(v int) int {
		if store != nil {
			return store.LabelFrequency(p.Label(graph.VertexID(v)))
		}
		return p.LabelFrequency(p.Label(graph.VertexID(v)))
	}
	omega := func(v int) int {
		best := math.MaxInt
		for k, uj := range es.nbrs[v] {
			if inOrder[uj] {
				best = min(best, es.size[v][k])
			}
		}
		return best
	}
	beats := func(cur, best int) bool {
		if descSizes[cur] != descSizes[best] {
			return descSizes[cur] > descSizes[best]
		}
		if oc, ob := omega(cur), omega(best); oc != ob {
			return oc < ob
		}
		if lc, lb := labelFreq(cur), labelFreq(best); lc != lb {
			return lc < lb
		}
		return cur < best
	}
	for len(ready) > 0 {
		bestIdx := 0
		for i := 1; i < len(ready); i++ {
			if beats(ready[i], ready[bestIdx]) {
				bestIdx = i
			}
		}
		v := ready[bestIdx]
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)
		order = append(order, graph.VertexID(v))
		inOrder[v] = true
		for _, c := range h.Out(v) {
			if indeg[c]--; indeg[c] == 0 {
				ready = append(ready, int(c))
			}
		}
	}
	return order
}

// refNEC tests every later unclassified vertex against each class leader.
func refNEC(p *graph.Graph) [][]graph.VertexID {
	n := p.NumVertices()
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = -1
	}
	var classes [][]graph.VertexID
	for u := 0; u < n; u++ {
		if classOf[u] != -1 {
			continue
		}
		classOf[u] = len(classes)
		group := []graph.VertexID{graph.VertexID(u)}
		for w := u + 1; w < n; w++ {
			if classOf[w] == -1 && necEquivalent(p, graph.VertexID(u), graph.VertexID(w)) {
				classOf[w] = classOf[u]
				group = append(group, graph.VertexID(w))
			}
		}
		classes = append(classes, group)
	}
	return classes
}

// refBuildDAG probes every ordered pair, asking the store about the
// label pair of every non-adjacent one.
func refBuildDAG(store *ccsr.Store, p *graph.Graph, order []graph.VertexID, variant graph.Variant) *DAG {
	if variant != graph.VertexInduced {
		return buildEdgeDAG(p, order)
	}
	d := NewDAG(p.NumVertices())
	for j := 1; j < len(order); j++ {
		uj := order[j]
		hasEarlierNeighbor := false
		for i := 0; i < j; i++ {
			if p.Adjacent(order[i], uj) {
				hasEarlierNeighbor = true
				break
			}
		}
		for i := 0; i < j; i++ {
			ui := order[i]
			if p.Adjacent(ui, uj) {
				d.AddEdge(int(ui), int(uj))
			} else if hasEarlierNeighbor && (store == nil || pairClustersNonEmpty(store, p.Label(ui), p.Label(uj))) {
				d.AddEdge(int(ui), int(uj))
			}
		}
	}
	return d
}

// refComputeSCE walks all n(n-1)/2 ordered pairs over the descendant sets.
func refComputeSCE(pl *Plan, store *ccsr.Store) SCEStats {
	n := len(pl.Order)
	stats := SCEStats{PatternVertices: n, TotalPairs: n * (n - 1) / 2}
	desc := pl.DAG.descendantSets()
	p := pl.Pattern
	for j := 1; j < n; j++ {
		uj := pl.Order[j]
		hasSCE, clusterOK := false, true
		for i := 0; i < j; i++ {
			ui := pl.Order[i]
			if desc.get(int(ui), int(uj)) {
				continue
			}
			hasSCE = true
			stats.IndependentPairs++
			if p.Label(ui) == p.Label(uj) && (store == nil || pairClustersNonEmpty(store, p.Label(ui), p.Label(uj))) {
				clusterOK = false
			}
		}
		if hasSCE {
			stats.SCEVertices++
			if clusterOK {
				stats.ClusterSCEVertices++
			}
		}
	}
	return stats
}

// planDiff names the first field in which two plans differ, or "".
func planDiff(got, want *Plan) string {
	if !slices.Equal(got.Order, want.Order) {
		return fmt.Sprintf("order %v, want %v", got.Order, want.Order)
	}
	if got.DAG.N() != want.DAG.N() {
		return fmt.Sprintf("DAG over %d vertices, want %d", got.DAG.N(), want.DAG.N())
	}
	for v := 0; v < got.DAG.N(); v++ {
		if !slices.Equal(got.DAG.In(v), want.DAG.In(v)) || !slices.Equal(got.DAG.Out(v), want.DAG.Out(v)) {
			return fmt.Sprintf("DAG lists of u%d: in %v out %v, want in %v out %v",
				v, got.DAG.In(v), got.DAG.Out(v), want.DAG.In(v), want.DAG.Out(v))
		}
	}
	if !slices.Equal(got.DescendantSizes, want.DescendantSizes) {
		return fmt.Sprintf("descendant sizes %v, want %v", got.DescendantSizes, want.DescendantSizes)
	}
	if d := classesDiff(got.NECClasses, want.NECClasses); d != "" {
		return d
	}
	if got.SCE != want.SCE {
		return fmt.Sprintf("SCE %+v, want %+v", got.SCE, want.SCE)
	}
	return ""
}

func classesDiff(got, want [][]graph.VertexID) string {
	if !slices.EqualFunc(got, want, slices.Equal[[]graph.VertexID]) {
		return fmt.Sprintf("NEC classes %v, want %v", got, want)
	}
	return ""
}

var oracleModes = []Mode{ModeCSCE, ModeRI, ModeRICluster, ModeRM, ModeCostBased}

// checkAgainstOracle optimizes p under every variant and mode (vertex-
// induced only when vertexInduced is set) and compares each plan, and a
// FromOrder plan around a random permutation, with the reference.
func checkAgainstOracle(t *testing.T, name string, p *graph.Graph, store *ccsr.Store, vertexInduced bool, rng *rand.Rand) {
	t.Helper()
	for _, variant := range graph.Variants() {
		if variant == graph.VertexInduced && !vertexInduced {
			continue
		}
		for _, mode := range oracleModes {
			if mode == ModeCostBased && store == nil {
				continue
			}
			got, err := Optimize(p, store, variant, mode)
			if err != nil {
				t.Fatalf("%s %s %s: %v", name, variant, mode, err)
			}
			if d := planDiff(got, refOptimize(p, store, variant, mode)); d != "" {
				t.Fatalf("%s %s %s: %s", name, variant, mode, d)
			}
		}
		order := make([]graph.VertexID, p.NumVertices())
		for i, v := range rng.Perm(len(order)) {
			order[i] = graph.VertexID(v)
		}
		got, err := FromOrder(p, store, variant, order)
		if err != nil {
			t.Fatal(err)
		}
		want := &Plan{Pattern: p, Variant: variant, Order: order, DAG: refBuildDAG(store, p, order, variant), NECClasses: refNEC(p)}
		want.DescendantSizes = want.DAG.DescendantSizes()
		want.SCE = refComputeSCE(want, store)
		if d := planDiff(got, want); d != "" {
			t.Fatalf("%s %s FromOrder: %s", name, variant, d)
		}
	}
}

// TestOptimizeMatchesReferenceOracle runs seeded patterns of 2 to 2 000
// vertices from two undirected data graphs and a directed one through
// every variant and mode. The 2 000-vertex pattern is drawn from Patent,
// the kernel-large data graph, only: the reference pays about 0.4 s per
// variant for it.
func TestOptimizeMatchesReferenceOracle(t *testing.T) {
	sparse := []int{2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 64, 128, 500, 1000}
	dense := []int{4, 6, 8, 12, 16, 24, 32, 64}
	for _, c := range []struct {
		name          string
		sparse, dense []int
	}{
		{"Yeast", sparse, dense},
		{"Patent", append(slices.Clip(sparse), 2000), dense},
		{"Subcategory", sparse, nil}, // too sparse to draw dense patterns from
	} {
		spec, _ := dataset.ByName(c.name)
		g := spec.Generate()
		store := ccsr.Build(g)
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		for _, kind := range []struct {
			sizes []int
			dense bool
		}{{c.sparse, false}, {c.dense, true}} {
			for _, n := range kind.sizes {
				count := 3
				if n >= 500 {
					count = 1
				}
				for i := 0; i < count; i++ {
					p, err := dataset.SamplePattern(g, n, kind.dense, rng)
					if err != nil {
						t.Fatalf("%s size %d: %v", c.name, n, err)
					}
					checkAgainstOracle(t, fmt.Sprintf("%s %s#%d", c.name, dataset.PatternConfig{Size: n, Dense: kind.dense}.Name(), i),
						p, store, n <= 500, rng)
				}
			}
		}
	}
}

// TestOptimizeMatchesReferenceOracleSmallLabelSets covers few-label and
// unlabeled patterns, where NEC classes and same-label SCE pairs are
// common, with and without a store.
func TestOptimizeMatchesReferenceOracleSmallLabelSets(t *testing.T) {
	_, store := fig1Data(t)
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 60; seed++ {
		p := randomConnectedPattern(seed, 2+absMod(seed, 40), 1+absMod(seed, 3), seed%2 == 0)
		checkAgainstOracle(t, fmt.Sprintf("random#%d", seed), p, store, true, rng)
		checkAgainstOracle(t, fmt.Sprintf("random#%d nil store", seed), p, nil, true, rng)
	}
}

// TestOptimizeMatchesReferenceOracleHandBuilt covers the shapes the
// shortcuts are most exposed to.
func TestOptimizeMatchesReferenceOracleHandBuilt(t *testing.T) {
	_, store := fig1Data(t)
	rng := rand.New(rand.NewSource(9))
	build := func(directed bool, labels []graph.Label, edges [][3]int) *graph.Graph {
		b := graph.NewBuilder(directed)
		for _, l := range labels {
			b.AddVertex(l)
		}
		for _, e := range edges {
			b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.EdgeLabel(e[2]))
		}
		return b.MustBuild()
	}

	// A star whose 40 leaves share a label: one large non-adjacent NEC class.
	var labels []graph.Label
	var edges [][3]int
	labels = append(labels, 0)
	for i := 1; i <= 40; i++ {
		labels = append(labels, 1)
		edges = append(edges, [3]int{0, i, 0})
	}
	star := build(false, labels, edges)
	if classes := NEC(star); len(classes) != 2 || len(classes[1]) != 40 {
		t.Fatalf("star NEC classes %v, want the hub and one class of 40 leaves", classes)
	}
	checkAgainstOracle(t, "star", star, store, true, rng)

	// A same-label clique: every vertex is adjacent-equivalent.
	labels, edges = nil, nil
	for i := 0; i < 12; i++ {
		labels = append(labels, 2)
		for j := 0; j < i; j++ {
			edges = append(edges, [3]int{j, i, 0})
		}
	}
	clique := build(false, labels, edges)
	if classes := NEC(clique); len(classes) != 1 {
		t.Fatalf("clique NEC classes %v, want one", classes)
	}
	checkAgainstOracle(t, "clique", clique, store, true, rng)

	// Parallel directed arcs with different labels: 0->1 twice, 2->1 with
	// the labels swapped in multiplicity, 3->1 once, and arcs both ways
	// between 4 and 1.
	arcs := build(true, []graph.Label{0, 1, 0, 0, 0}, [][3]int{
		{0, 1, 0}, {0, 1, 1}, {2, 1, 0}, {2, 1, 1}, {3, 1, 1}, {4, 1, 0}, {1, 4, 0},
	})
	checkAgainstOracle(t, "parallel arcs", arcs, store, true, rng)

	// A hub whose lowest-degree neighbour is itself a hub: vertices 0 and
	// 1 are adjacent hubs with 30 same-label leaves each, plus leaves
	// shared by both, so NEC candidates come through the second hub.
	labels, edges = []graph.Label{0, 0}, [][3]int{{0, 1, 0}}
	for i := 0; i < 30; i++ {
		labels = append(labels, 1, 1)
		edges = append(edges, [3]int{0, len(labels) - 2, 0}, [3]int{1, len(labels) - 1, 0})
	}
	for i := 0; i < 6; i++ {
		labels = append(labels, 1)
		edges = append(edges, [3]int{0, len(labels) - 1, 0}, [3]int{1, len(labels) - 1, 0})
	}
	hubs := build(false, labels, edges)
	checkAgainstOracle(t, "hub of hubs", hubs, store, true, rng)
	checkAgainstOracle(t, "hub of hubs nil store", hubs, nil, true, rng)

	// The public GCF and NEC on a disconnected pattern: a path, a triangle
	// and isolated same-label vertices.
	disc := build(false, []graph.Label{0, 1, 0, 2, 2, 1, 1, 0, 1, 2, 1}, [][3]int{
		{0, 1, 0}, {1, 2, 0}, {3, 4, 0}, {4, 9, 0}, {3, 9, 0},
	})
	for _, s := range []*ccsr.Store{store, nil} {
		if got, want := GCF(disc, s), refGCF(refEdgeSizes(disc, s)); !slices.Equal(got, want) {
			t.Fatalf("disconnected GCF %v, want %v", got, want)
		}
	}
	classes := NEC(disc)
	if d := classesDiff(classes, refNEC(disc)); d != "" {
		t.Fatalf("disconnected: %s", d)
	}
	if !slices.ContainsFunc(classes, func(c []graph.VertexID) bool { return slices.Equal(c, []graph.VertexID{5, 6, 8, 10}) }) {
		t.Fatalf("disconnected NEC classes %v: isolated label-1 vertices 5, 6, 8, 10 should share a class", classes)
	}
}

// TestGeneratePlanMatchesReferenceOracle drives the public GeneratePlan
// with random DAGs and descendant sizes over star and random patterns.
func TestGeneratePlanMatchesReferenceOracle(t *testing.T) {
	_, store := fig1Data(t)
	for seed := int64(0); seed < 200; seed++ {
		d := genDAG(seed)
		p := randomConnectedPattern(seed, d.N(), 1+absMod(seed, 3), seed%3 == 0)
		desc := d.DescendantSizes()
		for _, s := range []*ccsr.Store{store, nil} {
			got := GeneratePlan(d, desc, s, p)
			if want := refGeneratePlan(d, desc, s, p, refEdgeSizes(p, s)); !slices.Equal(got, want) {
				t.Fatalf("seed %d: GeneratePlan %v, want %v", seed, got, want)
			}
		}
	}
}
