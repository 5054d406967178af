package exec

import (
	"cmp"
	"errors"
	"slices"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

// ErrForeignStore is returned by Program.Run for a store other than the one
// the program was compiled against: its rows would not be that store's.
var ErrForeignStore = errors.New("exec: program run against a store it was not compiled for")

// Program is a plan compiled against one store: each level's filter chain
// resolved to cluster rows and ordered, the depth-0 pool, the NEC aliases
// and the static factorization flags — everything a run derives from the
// plan and the clusters, and nothing a run writes. It is immutable, so one
// program serves any number of runs, concurrent ones included; each run
// instantiates its own search state from it.
//
// A program holds the rows it reads but neither the View nor the Store they
// came from, so keeping one alive retains only the clusters it names, and
// only the store's Version tells which store those are.
type Program struct {
	pl      *plan.Plan
	version uint64 // ccsr.Store.Version of the store compiled against

	// levels[d].end delimits level d's chain in stages: it is
	// stages[levels[d-1].end:levels[d].end]. levels is nil when a pattern
	// edge has no cluster, which makes every run empty.
	levels []progLevel
	stages []progStage
	pool   []graph.VertexID // depth-0 candidates

	clusters, viewBytes int // of the View compiled from
}

// progStage is a stage's static half: the row to filter by, the depth whose
// mapping indexes it, and whether it negates.
type progStage struct {
	csr    *ccsr.CSR
	depth  int32
	negate bool
}

// progLevel is a level's static half beyond its chain.
type progLevel struct {
	end          int32
	necAlias     int32
	factorizable bool
}

// Compile resolves pl against view once, for any number of later runs on
// view's store (see Program). The view must have been read for pl's pattern
// and variant, and the program runs only on the store at the version the
// view was read at. keep, when non-nil, filters the depth-0 pool: the
// program's runs then find exactly those embeddings whose first order
// vertex maps to a vertex keep accepts.
func Compile(view *ccsr.View, pl *plan.Plan, keep func(graph.VertexID) bool) (*Program, error) {
	prog := &Program{
		pl:        pl,
		version:   view.Version(),
		clusters:  view.NumClusters(),
		viewBytes: view.DecompressedBytes(),
	}
	p := pl.Pattern
	n := len(pl.Order)
	depthOf := make([]int, p.NumVertices())
	for d, u := range pl.Order {
		depthOf[u] = d
	}

	// Every level's filter chain lives in one slice, level after level: one
	// stage per positive row and, vertex-induced, per negation row (at most
	// one per H-parent and cluster).
	capacity := p.NumEdges()
	if pl.Variant == graph.VertexInduced {
		capacity += pl.DAG.NumEdges()
	}
	stages := make([]progStage, 0, capacity)
	levels := make([]progLevel, n)
	unled := -1 // the first level without a positive stage
	for d, u := range pl.Order {
		// Positive rows: one per pattern edge between u and an earlier
		// vertex, resolved to the cluster side whose rows are indexed by the
		// earlier vertex's mapping.
		lo := len(stages)
		var ok bool
		if stages, ok = appendPositive(stages, view, p, u, d, depthOf); !ok {
			return prog, nil // missing cluster: no embeddings exist
		}
		// Negation rows come from the dependency DAG: an H-parent that is
		// not a pattern neighbor is a vertex-induced negation dependency.
		if pl.Variant == graph.VertexInduced {
			stages = appendNegation(stages, view, pl, u, d, depthOf)
		}
		if d > 0 && !orderStages(stages[lo:]) && unled < 0 {
			unled = d
		}
		levels[d].end = int32(len(stages))
	}
	// A missing cluster anywhere empties the result before this is asked.
	if unled >= 0 {
		return nil, errInternal("order position %d (u%d) has no earlier pattern neighbor", unled, pl.Order[unled])
	}

	// Factorization eligibility (see package comment), from the deepest
	// level up, so laterLabels counts the labels of the later vertices.
	laterLabels := make(map[graph.Label]int)
	for d := n - 1; d >= 0; d-- {
		u := pl.Order[d]
		lv := &levels[d]
		if pl.DAG != nil {
			lv.factorizable = len(pl.DAG.Out(int(u))) == 0
		}
		if pl.Variant.Injective() && laterLabels[p.Label(u)] > 0 {
			lv.factorizable = false
		}
		laterLabels[p.Label(u)]++
	}

	pool, err := buildPool(view, pl, keep)
	if err != nil {
		return nil, err
	}
	prog.levels, prog.stages, prog.pool = levels, stages, pool
	prog.bindNECAliases(depthOf)
	return prog, nil
}

// appendPositive resolves the pattern edges between u = order[d] and
// earlier vertices into positive stages. It reports ok=false when a needed
// cluster does not exist in the data graph.
func appendPositive(stages []progStage, view *ccsr.View, p *graph.Graph, u graph.VertexID, d int, depthOf []int) ([]progStage, bool) {
	label := p.Label(u)
	if p.Directed() {
		// Edges w -> u: candidates are outgoing neighbors of f(w).
		for _, nb := range p.In(u) {
			if depthOf[nb.To] >= d {
				continue
			}
			c := view.EdgeCluster(p.Label(nb.To), label, nb.Label)
			if c == nil {
				return stages, false
			}
			stages = append(stages, progStage{csr: c.FromSrc(), depth: int32(depthOf[nb.To])})
		}
		// Edges u -> w: candidates are incoming neighbors of f(w).
		for _, nb := range p.Out(u) {
			if depthOf[nb.To] >= d {
				continue
			}
			c := view.EdgeCluster(label, p.Label(nb.To), nb.Label)
			if c == nil {
				return stages, false
			}
			stages = append(stages, progStage{csr: c.FromDst(), depth: int32(depthOf[nb.To])})
		}
		return stages, true
	}
	for _, nb := range p.Out(u) {
		if depthOf[nb.To] >= d {
			continue
		}
		c := view.EdgeCluster(label, p.Label(nb.To), nb.Label)
		if c == nil {
			return stages, false
		}
		stages = append(stages, progStage{csr: c.FromSrc(), depth: int32(depthOf[nb.To])})
	}
	return stages, true
}

// appendNegation derives the vertex-induced negation stages of u = order[d]
// from the dependency DAG. For a non-neighbor H-parent, every data arc
// between the mappings is forbidden. For a pattern-neighbor parent, only
// the arcs the pattern actually has are allowed: a reverse arc or an arc
// with a different edge label in the data graph would make the induced
// subgraph non-isomorphic to P, so clusters holding such arcs become
// negation rows too.
func appendNegation(stages []progStage, view *ccsr.View, pl *plan.Plan, u graph.VertexID, d int, depthOf []int) []progStage {
	p := pl.Pattern
	for _, par := range pl.DAG.In(int(u)) {
		w := graph.VertexID(par)
		if depthOf[w] >= d {
			continue
		}
		neg := func(csr *ccsr.CSR) {
			stages = append(stages, progStage{csr: csr, depth: int32(depthOf[w]), negate: true})
		}
		for _, c := range view.PairClusters(p.Label(w), p.Label(u)) {
			if !c.Key.Directed {
				if !p.HasEdgeLabeled(w, u, c.Key.Edge) {
					neg(c.Out)
				}
				continue
			}
			// Directed cluster (L(w) -> L(u)): rows of Out are indexed by the
			// w-side; (L(u) -> L(w)): rows of In are indexed by the w-side.
			// Either way the row of f(w) lists the candidates adjacent to it.
			// Clusters whose arc the pattern requires are excluded — the
			// positive stages already enforce their presence.
			if c.Key.Src == p.Label(w) && !p.HasEdgeLabeled(w, u, c.Key.Edge) {
				neg(c.Out)
			}
			if c.Key.Dst == p.Label(w) && !p.HasEdgeLabeled(u, w, c.Key.Edge) {
				neg(c.In)
			}
		}
	}
	return stages
}

// orderStages arranges one level's chain: the shallowest positive stage
// leads (its row is handed out as it is), and the rest follow by ascending
// parent depth, so a negation shallower than the lead comes right after
// it. The sort is stable, so at equal depth positives precede negations.
// It reports false when the level has no positive stage.
func orderStages(st []progStage) bool {
	lead := -1
	for i := range st {
		if !st[i].negate && (lead < 0 || st[i].depth < st[lead].depth) {
			lead = i
		}
	}
	if lead < 0 {
		return false
	}
	first := st[lead]
	copy(st[1:lead+1], st[:lead])
	st[0] = first
	slices.SortStableFunc(st[1:], func(a, b progStage) int { return cmp.Compare(a.depth, b.depth) })
	return true
}

// buildPool selects the depth-0 candidate pool: the non-empty rows of the
// first order vertex's smallest incident cluster side (every data vertex,
// for a single-vertex pattern) that carry its label and that keep, when
// non-nil, accepts. The pool is counted before it is filled, so it is
// exactly sized: a cached program retains no slot it never reads.
func buildPool(view *ccsr.View, pl *plan.Plan, keep func(graph.VertexID) bool) ([]graph.VertexID, error) {
	p := pl.Pattern
	u := pl.Order[0]
	label := p.Label(u)
	// Every incident cluster exists: appendPositive resolved each one.
	var best *ccsr.CSR
	consider := func(csr *ccsr.CSR) {
		if best == nil || csr.Len() < best.Len() {
			best = csr
		}
	}
	for _, nb := range p.Out(u) {
		consider(view.EdgeCluster(label, p.Label(nb.To), nb.Label).FromSrc())
	}
	if p.Directed() {
		for _, nb := range p.In(u) {
			consider(view.EdgeCluster(p.Label(nb.To), label, nb.Label).FromDst())
		}
	}
	var rows []graph.VertexID
	size := 0
	switch {
	case best != nil:
		rows = best.NonEmptyRows()
		size = len(rows)
	case len(pl.Order) == 1:
		size = view.NumVertices() // rows stays nil: candidate i is vertex i
	default:
		return nil, errInternal("first order vertex u%d has no incident pattern edge", u)
	}
	candidate := func(i int) (graph.VertexID, bool) {
		v := graph.VertexID(i)
		if rows != nil {
			v = rows[i]
		}
		return v, view.VertexLabel(v) == label && (keep == nil || keep(v))
	}
	n := 0
	for i := 0; i < size; i++ {
		if _, ok := candidate(i); ok {
			n++
		}
	}
	pool := make([]graph.VertexID, 0, n)
	for i := 0; i < size; i++ {
		if v, ok := candidate(i); ok {
			pool = append(pool, v)
		}
	}
	return pool, nil
}

// chain returns level d's filter chain.
func (p *Program) chain(d int) []progStage {
	lo := int32(0)
	if d > 0 {
		lo = p.levels[d-1].end
	}
	return p.stages[lo:p.levels[d].end]
}

// bindNECAliases links each level to the earliest NEC-equivalent level
// with identical dependency parents, so their candidate lists are shared.
// Sharing is restricted to the edge-induced and homomorphic variants: in
// the vertex-induced variant a later equivalent vertex additionally
// filters against the earlier one's mapping (mutual non-adjacency), so the
// lists differ.
func (p *Program) bindNECAliases(depthOf []int) {
	for d := range p.levels {
		p.levels[d].necAlias = -1
	}
	if p.pl.Variant == graph.VertexInduced || p.pl.NECClasses == nil {
		return
	}
	for _, class := range p.pl.NECClasses {
		if len(class) < 2 {
			continue
		}
		// Order class members by depth; alias each to the earliest member
		// whose parent set matches.
		depths := make([]int, 0, len(class))
		for _, u := range class {
			depths = append(depths, depthOf[u])
		}
		slices.Sort(depths)
		for i := 1; i < len(depths); i++ {
			d := depths[i]
			for _, ea := range depths[:i] {
				if sameParents(p.chain(d), p.chain(ea)) {
					p.levels[d].necAlias = int32(ea)
					break
				}
			}
		}
	}
}

// sameParents reports whether two chains depend on the same set of earlier
// depths.
func sameParents(a, b []progStage) bool {
	return coversParents(a, b) && coversParents(b, a)
}

// coversParents reports whether every parent depth of a is one of b's.
func coversParents(a, b []progStage) bool {
	for _, x := range a {
		if !slices.ContainsFunc(b, func(y progStage) bool { return y.depth == x.depth }) {
			return false
		}
	}
	return true
}

// Plan returns the plan the program was compiled from.
func (p *Program) Plan() *plan.Plan { return p.pl }

// Clusters returns how many clusters the compiled view selected.
func (p *Program) Clusters() int { return p.clusters }

// ViewBytes returns the compiled view's DecompressedBytes: the size of the
// shared cluster arrays the program may read.
func (p *Program) ViewBytes() int { return p.viewBytes }

// Run executes the program on store under opts. store must be the one the
// program was compiled against, at the same version; any other returns
// ErrForeignStore.
func (p *Program) Run(store *ccsr.Store, opts Options) (Stats, error) {
	if store.Version() != p.version {
		return Stats{}, ErrForeignStore
	}
	if p.levels == nil {
		return Stats{}, nil // a pattern edge has no matching cluster: empty result
	}
	e := newRunState(p.pl, opts, store.NumVertices())
	// Each run copies the chain into stages it can write: a stage's cached
	// version and output are run state (EXPERIMENTS.md "Follow-up: one
	// path" measured a parallel run-state slice instead, and kept this).
	slab := make([]stage, len(p.stages))
	for i, st := range p.stages {
		slab[i] = stage{parentDepth: int(st.depth), csr: st.csr, negate: st.negate}
	}
	lo := int32(0)
	for d := range e.levels {
		pv, lv := p.levels[d], &e.levels[d]
		lv.u = p.pl.Order[d]
		lv.label = p.pl.Pattern.Label(lv.u)
		lv.stages = slab[lo:pv.end:pv.end]
		lv.necAlias = int(pv.necAlias)
		lv.factorizable = pv.factorizable
		lo = pv.end
	}
	e.levels[0].pool = p.pool
	if !e.applyOptions(store) {
		return Stats{}, nil
	}
	return e.execute(), nil
}
