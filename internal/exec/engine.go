package exec

import (
	"cmp"
	"slices"
	"time"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

// stage is one link of a level's filter chain: it keeps the candidates the
// previous stage kept that are (a positive stage) or are not (a negation
// stage, the vertex-induced negation of Algorithm 1/2) in the row of the
// parent mapping e.mapping[parentDepth] in csr. Stage 0 is the shallowest
// positive row itself.
//
// Each stage caches its output with the version of its parent mapping, so
// a candidate request recomputes only from the first stage whose parent
// changed; the prefix whose parents are all unchanged is reused as it is.
// When every stage is current the whole list is an SCE hit.
type stage struct {
	parentDepth int
	csr         *ccsr.CSR
	negate      bool

	// ver is e.version[parentDepth] when out was computed. Zero never
	// matches: a parent has been mapped, so its version is at least 1, by
	// the time any level below it asks for candidates.
	ver uint64
	// out is the cluster row itself (stage 0), part of this stage's input
	// when it dropped nothing or only a run at one end, or else a run of
	// the level arena.
	out []graph.VertexID
	// end is the arena length after out; the next stage appends from here.
	end int
}

// symConstraint enforces f(order[parentDepth]) < candidate (greater=true)
// or candidate < f(order[parentDepth]) (greater=false).
type symConstraint struct {
	parentDepth int
	greater     bool
}

// level holds the static per-depth matching state plus its filter chain.
type level struct {
	u     graph.VertexID
	label graph.Label

	// stages is the level's filter chain (see stage), ordered by parent
	// depth except that stage 0, the shallowest positive row, leads; empty
	// at depth 0, which draws from pool.
	stages []stage
	sym    []symConstraint
	pool   []graph.VertexID // depth-0 candidate pool

	// arena backs the stage outputs that are not aliases. Recomputing from
	// stage i rewinds it to stages[i-1].end, so the outputs of the reused
	// prefix are never overwritten.
	arena []graph.VertexID

	// factorizable: no later order position depends on this vertex, and
	// injectivity cannot couple it to later vertices.
	factorizable bool

	// necAlias, when >= 0, is an earlier depth whose vertex is
	// NEC-equivalent with the same dependency parents: its candidate list
	// is this level's candidate list (TurboISO-style candidate sharing,
	// applied at the end of optimization as in Section III).
	necAlias int

	// pinned restricts this level to a single data vertex (delta matching).
	pinned    bool
	pinnedVal graph.VertexID
	// pinnedSlice is the fixed one-element candidate list match hands out
	// for a pinned level, built once at construction so the hot loop never
	// materializes it per visit.
	pinnedSlice []graph.VertexID
}

type engine struct {
	// view is the cluster selection the chains are resolved from; nil on a
	// run of a compiled Program, which resolved them once at Compile.
	view *ccsr.View
	pl   *plan.Plan
	opts Options

	n       int
	levels  []level
	mapping []graph.VertexID // by depth
	byVert  []graph.VertexID // by pattern vertex ID, for callbacks
	used    []bool
	version []uint64

	stats    Stats
	deadline time.Time
	done     <-chan struct{} // Options.Ctx.Done(); nil when uncancellable
	stop     bool

	// prof, when non-nil, accumulates the per-level profile.
	prof *profiler
}

// newEngine precompiles the plan into per-depth constraint lists. It
// returns (nil, nil) when some pattern edge has no matching cluster, which
// means the result is trivially empty.
func newEngine(view *ccsr.View, pl *plan.Plan, opts Options) (*engine, error) {
	e := newRunState(pl, opts, view.NumVertices())
	e.view = view
	depthOf, ok, err := e.resolve()
	if !ok || err != nil {
		return nil, err
	}
	if !e.applyOptions(view.Store(), depthOf) {
		return nil, nil
	}
	return e, nil
}

// newRunState allocates what one run writes: the levels, the mapping, the
// version counters and, for an injective variant, the used marks over the
// numVertices data vertices.
func newRunState(pl *plan.Plan, opts Options, numVertices int) *engine {
	n := len(pl.Order)
	e := &engine{
		pl:      pl,
		opts:    opts,
		n:       n,
		levels:  make([]level, n),
		mapping: make([]graph.VertexID, n),
		byVert:  make([]graph.VertexID, pl.Pattern.NumVertices()),
		version: make([]uint64, n),
	}
	if pl.Variant.Injective() {
		// Only injective variants read used; a homomorphic run skips the
		// |V|-sized allocation and its zeroing.
		e.used = make([]bool, numVertices)
	}
	if opts.TimeLimit > 0 {
		e.deadline = time.Now().Add(opts.TimeLimit)
	}
	if opts.Ctx != nil {
		e.done = opts.Ctx.Done()
	}
	return e
}

// resolve fills in what the plan and e.view alone determine: every level's
// vertex, label and ordered filter chain, the depth-0 pool, the NEC
// aliases and the static factorization flags. It returns the depth of each
// pattern vertex, and ok=false when some pattern edge has no matching
// cluster, which means the result is trivially empty.
func (e *engine) resolve() (depthOf []int, ok bool, err error) {
	pl := e.pl
	p := pl.Pattern
	n := e.n
	depthOf = make([]int, p.NumVertices())
	for d, u := range pl.Order {
		depthOf[u] = d
	}
	laterLabels := make(map[graph.Label]int) // label -> count among later vertices

	// Every level's filter chain lives in one slab: one stage per positive
	// row and, vertex-induced, per negation row (at most one per H-parent
	// and cluster). spans[d] delimits level d's stages until the slab stops
	// growing.
	capacity := p.NumEdges()
	if pl.Variant == graph.VertexInduced {
		capacity += pl.DAG.NumEdges()
	}
	slab := make([]stage, 0, capacity)
	spans := make([][2]int, n)
	for d := n - 1; d >= 0; d-- {
		u := pl.Order[d]
		lv := &e.levels[d]
		lv.u = u
		lv.label = p.Label(u)

		// Positive rows: one per pattern edge between u and an earlier
		// vertex, resolved to the cluster side whose rows are indexed by the
		// earlier vertex's mapping.
		lo := len(slab)
		if slab, ok = e.appendPositive(slab, lv, d, depthOf); !ok {
			return nil, false, nil // missing cluster: no embeddings exist
		}
		// Negation rows come from the dependency DAG: an H-parent that is
		// not a pattern neighbor is a vertex-induced negation dependency.
		if pl.Variant == graph.VertexInduced {
			slab = e.appendNegation(slab, lv, d, depthOf)
		}
		spans[d] = [2]int{lo, len(slab)}

		// Factorization eligibility (see package comment).
		if pl.DAG != nil {
			lv.factorizable = len(pl.DAG.Out(int(u))) == 0
		}
		if pl.Variant.Injective() && laterLabels[lv.label] > 0 {
			lv.factorizable = false
		}
		laterLabels[lv.label]++
	}
	for d := 1; d < n; d++ {
		lv := &e.levels[d]
		lv.stages = slab[spans[d][0]:spans[d][1]:spans[d][1]]
		if !orderStages(lv.stages) {
			return nil, false, errInternal("order position %d (u%d) has no earlier pattern neighbor", d, lv.u)
		}
	}

	// Depth 0 candidate pool: the smallest incident cluster's non-empty
	// rows, filtered to the right label.
	if err := e.buildPool(); err != nil {
		return nil, false, err
	}
	if e.levels[0].pool == nil {
		return nil, false, nil
	}

	e.bindNECAliases(depthOf)
	return depthOf, true, nil
}

// applyOptions adds what the run's options change to the resolved levels:
// symmetry constraints, pinned vertices and the factorization switches, and
// it drops the NEC aliases when the candidate cache is off. depthOf may be
// nil; it is derived from the plan only if a constraint or pin needs it. It
// reports false when a pin's label cannot match, which makes the whole
// search empty.
func (e *engine) applyOptions(store *ccsr.Store, depthOf []int) bool {
	opts := e.opts
	if opts.DisableSCECache {
		// Sharing rides on the candidate cache: with the cache disabled a
		// deeper alias lookup would rebuild into the buffer the aliased
		// level is iterating.
		for d := range e.levels {
			e.levels[d].necAlias = -1
		}
	}
	if depthOf == nil && len(opts.SymmetryConstraints)+len(opts.Pinned) > 0 {
		depthOf = make([]int, e.pl.Pattern.NumVertices())
		for d, u := range e.pl.Order {
			depthOf[u] = d
		}
	}
	// Symmetry constraints attach to the later-ordered endpoint.
	for _, c := range opts.SymmetryConstraints {
		a, b := c[0], c[1] // f(a) < f(b)
		da, db := depthOf[a], depthOf[b]
		if da < db {
			e.levels[db].sym = append(e.levels[db].sym, symConstraint{parentDepth: da, greater: true})
		} else {
			e.levels[da].sym = append(e.levels[da].sym, symConstraint{parentDepth: db, greater: false})
		}
	}
	// Pinned assignments restrict single levels; a pin whose label cannot
	// match makes the whole search empty.
	for _, pin := range opts.Pinned {
		u, v := pin[0], pin[1]
		d := depthOf[u]
		if int(v) >= store.NumVertices() || store.VertexLabel(v) != e.pl.Pattern.Label(u) {
			return false
		}
		lv := &e.levels[d]
		lv.pinned = true
		lv.pinnedVal = v
		lv.pinnedSlice = []graph.VertexID{v}
		lv.factorizable = false
	}
	if len(opts.SymmetryConstraints) > 0 || opts.OnEmbedding != nil || opts.DisableFactorization {
		for d := range e.levels {
			e.levels[d].factorizable = false
		}
	}
	return true
}

// appendPositive resolves the pattern edges between order[d] and earlier
// vertices into positive stages. It reports ok=false when a needed cluster
// does not exist in the data graph.
func (e *engine) appendPositive(slab []stage, lv *level, d int, depthOf []int) ([]stage, bool) {
	p := e.pl.Pattern
	u := lv.u
	if p.Directed() {
		// Edges w -> u: candidates are outgoing neighbors of f(w).
		for _, nb := range p.In(u) {
			if depthOf[nb.To] >= d {
				continue
			}
			c := e.view.EdgeCluster(p.Label(nb.To), lv.label, nb.Label)
			if c == nil {
				return slab, false
			}
			slab = append(slab, stage{parentDepth: depthOf[nb.To], csr: c.FromSrc()})
		}
		// Edges u -> w: candidates are incoming neighbors of f(w).
		for _, nb := range p.Out(u) {
			if depthOf[nb.To] >= d {
				continue
			}
			c := e.view.EdgeCluster(lv.label, p.Label(nb.To), nb.Label)
			if c == nil {
				return slab, false
			}
			slab = append(slab, stage{parentDepth: depthOf[nb.To], csr: c.FromDst()})
		}
		return slab, true
	}
	for _, nb := range p.Out(u) {
		if depthOf[nb.To] >= d {
			continue
		}
		c := e.view.EdgeCluster(lv.label, p.Label(nb.To), nb.Label)
		if c == nil {
			return slab, false
		}
		slab = append(slab, stage{parentDepth: depthOf[nb.To], csr: c.FromSrc()})
	}
	return slab, true
}

// appendNegation derives the vertex-induced negation stages for depth d
// from the dependency DAG. For a non-neighbor H-parent, every data arc
// between the mappings is forbidden. For a pattern-neighbor parent, only
// the arcs the pattern actually has are allowed: a reverse arc or an arc
// with a different edge label in the data graph would make the induced
// subgraph non-isomorphic to P, so clusters holding such arcs become
// negation rows too.
func (e *engine) appendNegation(slab []stage, lv *level, d int, depthOf []int) []stage {
	p := e.pl.Pattern
	u := lv.u
	for _, par := range e.pl.DAG.In(int(u)) {
		w := graph.VertexID(par)
		if depthOf[w] >= d {
			continue
		}
		neg := func(csr *ccsr.CSR) {
			slab = append(slab, stage{parentDepth: depthOf[w], csr: csr, negate: true})
		}
		for _, c := range e.view.PairClusters(p.Label(w), p.Label(u)) {
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
	return slab
}

// orderStages arranges one level's chain: the shallowest positive stage
// leads (its row is handed out as it is), and the rest follow by ascending
// parent depth, so a negation shallower than the lead comes right after
// it. The sort is stable, so at equal depth positives precede negations.
// It reports false when the level has no positive stage.
func orderStages(st []stage) bool {
	lead := -1
	for i := range st {
		if !st[i].negate && (lead < 0 || st[i].parentDepth < st[lead].parentDepth) {
			lead = i
		}
	}
	if lead < 0 {
		return false
	}
	first := st[lead]
	copy(st[1:lead+1], st[:lead])
	st[0] = first
	slices.SortStableFunc(st[1:], func(a, b stage) int { return cmp.Compare(a.parentDepth, b.parentDepth) })
	return true
}

// buildPool selects the depth-0 candidate pool from the smallest incident
// cluster of the first pattern vertex, label-filtered.
func (e *engine) buildPool() error {
	p := e.pl.Pattern
	lv := &e.levels[0]
	u := lv.u

	type side struct {
		csr  *ccsr.CSR
		size int
	}
	var best *side
	consider := func(csr *ccsr.CSR) {
		if csr == nil {
			return
		}
		s := side{csr: csr, size: csr.Len()}
		if best == nil || s.size < best.size {
			best = &s
		}
	}
	if p.Directed() {
		for _, nb := range p.Out(u) {
			if c := e.view.EdgeCluster(lv.label, p.Label(nb.To), nb.Label); c != nil {
				consider(c.FromSrc())
			} else {
				return nil // missing cluster: empty result (pool stays nil)
			}
		}
		for _, nb := range p.In(u) {
			if c := e.view.EdgeCluster(p.Label(nb.To), lv.label, nb.Label); c != nil {
				consider(c.FromDst())
			} else {
				return nil
			}
		}
	} else {
		for _, nb := range p.Out(u) {
			if c := e.view.EdgeCluster(lv.label, p.Label(nb.To), nb.Label); c != nil {
				consider(c.FromSrc())
			} else {
				return nil
			}
		}
	}
	if best == nil {
		if e.n == 1 {
			// Single-vertex pattern: every data vertex with the label.
			var pool []graph.VertexID
			for v := 0; v < e.view.NumVertices(); v++ {
				if e.view.VertexLabel(graph.VertexID(v)) == lv.label {
					pool = append(pool, graph.VertexID(v))
				}
			}
			lv.pool = pool
			if lv.pool == nil {
				lv.pool = []graph.VertexID{}
			}
			return nil
		}
		return errInternal("first order vertex u%d has no incident pattern edge", u)
	}
	pool := best.csr.NonEmptyRows()
	filtered := make([]graph.VertexID, 0, len(pool))
	for _, v := range pool {
		if e.view.VertexLabel(v) == lv.label {
			filtered = append(filtered, v)
		}
	}
	lv.pool = filtered
	return nil
}

// bindNECAliases links each level to the earliest NEC-equivalent level
// with identical dependency parents, so their candidate lists are shared.
// Sharing is restricted to the edge-induced and homomorphic variants: in
// the vertex-induced variant a later equivalent vertex additionally
// filters against the earlier one's mapping (mutual non-adjacency), so the
// lists differ.
func (e *engine) bindNECAliases(depthOf []int) {
	for d := range e.levels {
		e.levels[d].necAlias = -1
	}
	if e.pl.Variant == graph.VertexInduced || e.pl.NECClasses == nil {
		return
	}
	for _, class := range e.pl.NECClasses {
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
			for j := 0; j < i; j++ {
				ea := depths[j]
				if sameParents(e.levels[d].stages, e.levels[ea].stages) {
					e.levels[d].necAlias = ea
					break
				}
			}
		}
	}
}

// sameParents reports whether two chains depend on the same set of earlier
// depths.
func sameParents(a, b []stage) bool {
	return coversParents(a, b) && coversParents(b, a)
}

// coversParents reports whether every parent depth of a is one of b's.
func coversParents(a, b []stage) bool {
	for _, x := range a {
		if !slices.ContainsFunc(b, func(y stage) bool { return y.parentDepth == x.parentDepth }) {
			return false
		}
	}
	return true
}

// run drives the search from depth 0.
func (e *engine) run() {
	if e.cancelled() {
		return // already-dead context: do zero work
	}
	e.match(0, 1)
}

// match extends the partial embedding at depth d; factor is the product of
// factorized level counts accumulated so far.
//
//csce:hotpath the per-embedding extension loop; one allocation here scales with Steps
func (e *engine) match(d int, factor uint64) {
	if e.stop {
		return
	}
	if d == e.n {
		e.emit(factor)
		return
	}
	lv := &e.levels[d]
	cands := e.candidates(d)
	if len(cands) == 0 {
		return
	}
	if lv.pinned {
		// A pinned level contributes its fixed vertex or nothing.
		if !ccsr.Contains(cands, lv.pinnedVal) {
			return
		}
		cands = lv.pinnedSlice
	}

	if lv.factorizable {
		if e.prof != nil {
			e.prof.levels[d].Factorized++
		}
		// Count valid candidates without descending per candidate: no later
		// level depends on this mapping and injectivity cannot couple it.
		valid := uint64(0)
		if e.pl.Variant.Injective() {
			for _, v := range cands {
				if !e.used[v] {
					valid++
				}
			}
		} else {
			valid = uint64(len(cands))
		}
		if valid == 0 {
			return
		}
		e.stats.FactorizedLevels++
		e.match(d+1, factor*valid)
		return
	}

	injective := e.pl.Variant.Injective()
	for _, v := range cands {
		if e.stop {
			return
		}
		e.stats.Steps++
		if e.prof != nil {
			e.prof.levels[d].Steps++
		}
		if e.stats.Steps&1023 == 0 {
			if e.overDeadline() || e.cancelled() {
				return
			}
		}
		if injective && e.used[v] {
			continue
		}
		if !e.symOK(lv, v) {
			continue
		}
		e.mapping[d] = v
		e.byVert[lv.u] = v
		e.version[d]++
		if injective {
			e.used[v] = true
		}
		e.match(d+1, factor)
		if injective {
			e.used[v] = false
		}
	}
}

// emit accounts one (possibly factorized) embedding. The limit is enforced
// exactly: the factor is clamped to the remaining budget *before* it is
// counted.
//
//csce:hotpath runs once per embedding; counting must not allocate
func (e *engine) emit(factor uint64) {
	if e.opts.Limit > 0 {
		if remaining := e.opts.Limit - e.stats.Embeddings; factor >= remaining {
			factor = remaining
			e.stats.LimitHit = true
			e.stop = true
		}
	}
	e.stats.Embeddings += factor
	if e.opts.OnEmbedding != nil {
		// A callback disables factorization, so factor is 1 here and the
		// clamp above admitted exactly this embedding.
		if !e.opts.OnEmbedding(e.byVert) {
			e.stop = true
		}
	}
}

// candidates returns the candidate list of depth d. The level's filter
// chain is recomputed from its first stage whose parent mapping changed
// since it was built; when none did, the cached list is an SCE hit.
//
//csce:hotpath the cache-hit path must stay allocation-free
func (e *engine) candidates(d int) []graph.VertexID {
	lv := &e.levels[d]
	if d == 0 {
		return lv.pool
	}
	if lv.necAlias >= 0 {
		// NEC sharing: an equivalent earlier vertex with the same parents
		// has this exact candidate list (its chain is necessarily current,
		// since its parents are all mapped above us and unchanged).
		e.stats.NECShares++
		if e.prof != nil {
			e.prof.levels[d].NECShares++
		}
		return e.candidates(lv.necAlias)
	}
	from := 0
	if !e.opts.DisableSCECache {
		for from < len(lv.stages) && lv.stages[from].ver == e.version[lv.stages[from].parentDepth] {
			from++
		}
		if from == len(lv.stages) {
			e.stats.CandidateReuses++
			if e.prof != nil {
				e.prof.levels[d].CandidateReuses++
			}
			return lv.stages[from-1].out
		}
	}
	e.stats.CandidateBuilds++
	cands := e.rebuild(lv, from)
	if e.prof != nil {
		e.prof.levels[d].CandidateBuilds++
		e.prof.levels[d].CandidateTotal += uint64(len(cands))
	}
	return cands
}

// rebuild recomputes lv's chain from stage from on, reusing the outputs
// of the stages before it, and returns the last stage's output. Stage 0
// is the lead row itself (zero copy); every later stage is a galloping
// merge of its input with one row. Outputs that are not aliases are
// appended to the level arena behind the reused prefix, which grows by
// append and is never reallocated for the prefix's sake: a prefix output in
// an outgrown arena stays valid where it is.
//
//csce:hotpath rebuilt on every SCE miss; stage outputs are level-owned
func (e *engine) rebuild(lv *level, from int) []graph.VertexID {
	var in []graph.VertexID
	end := 0
	if from > 0 {
		in, end = lv.stages[from-1].out, lv.stages[from-1].end
	}
	for i := from; i < len(lv.stages); i++ {
		st := &lv.stages[i]
		st.ver = e.version[st.parentDepth]
		switch {
		case i == 0:
			in = st.csr.Row(e.mapping[st.parentDepth])
		case len(in) == 0:
			// Nothing left to filter, and nothing to look up.
		default:
			row := st.csr.Row(e.mapping[st.parentDepth])
			arena := lv.arena[:end]
			if st.negate {
				in, arena = subtract(arena, in, row)
			} else {
				in, arena = intersect(arena, in, row)
			}
			lv.arena, end = arena, len(arena)
		}
		st.out, st.end = in, end
	}
	return in
}

// intersect returns in ∩ row. Both lists ascend; the merge gallops forward
// through whichever side is behind, so a short side costs O(short ·
// log(long/short)) rather than one binary search per element. While every
// element of in is kept the result is a prefix of in itself; from the first
// drop on, the kept elements are appended to arena.
//
//csce:hotpath one call per positive stage recomputed
func intersect(arena, in, row []graph.VertexID) (out, grown []graph.VertexID) {
	start := len(arena)
	copying := false
	i, j := 0, 0
	for i < len(in) {
		v := in[i]
		if j = ccsr.Seek(row, j, v); j == len(row) {
			break
		}
		if row[j] == v {
			if copying {
				arena = append(arena, v)
			}
			i++
			j++
			continue
		}
		// v is not in row, and neither is anything in in below row[j].
		if !copying {
			arena = append(arena, in[:i]...)
			copying = true
		}
		i = ccsr.Seek(in, i+1, row[j])
	}
	if !copying {
		return in[:i], arena
	}
	return arena[start:], arena
}

// subtract returns in minus the elements of row, with intersect's gallop.
// While nothing but a leading run is dropped the result is a suffix of in
// itself; otherwise the kept runs between dropped elements are appended to
// arena.
//
//csce:hotpath one call per negation stage recomputed
func subtract(arena, in, row []graph.VertexID) (out, grown []graph.VertexID) {
	start := len(arena)
	kept := 0 // in[kept:i] is the pending run of kept elements
	i, j := 0, 0
	for i < len(in) {
		v := in[i]
		if j = ccsr.Seek(row, j, v); j == len(row) {
			break
		}
		if row[j] != v {
			// Everything in in below row[j] is kept.
			i = ccsr.Seek(in, i+1, row[j])
			continue
		}
		arena = append(arena, in[kept:i]...)
		i++
		j++
		kept = i
	}
	if len(arena) == start {
		// Nothing was dropped, or only a leading run: in[kept:] is the result.
		return in[kept:], arena
	}
	arena = append(arena, in[kept:]...)
	return arena[start:], arena
}

//csce:hotpath checked once per candidate vertex
func (e *engine) symOK(lv *level, v graph.VertexID) bool {
	for _, s := range lv.sym {
		w := e.mapping[s.parentDepth]
		if s.greater {
			if v <= w {
				return false
			}
		} else if v >= w {
			return false
		}
	}
	return true
}

// cancelled polls the context's done channel (non-blocking). It is called
// on entry and every ~1k extension steps, so cancellation latency is
// bounded by a short burst of in-memory work, never by the search size.
func (e *engine) cancelled() bool {
	if e.done == nil {
		return false
	}
	select {
	case <-e.done:
		e.stats.Cancelled = true
		e.stop = true
		return true
	default:
		return false
	}
}

func (e *engine) overDeadline() bool {
	if e.deadline.IsZero() {
		return false
	}
	if time.Now().After(e.deadline) {
		e.stats.TimedOut = true
		e.stop = true
		return true
	}
	return false
}
