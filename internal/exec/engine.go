package exec

import (
	"time"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

// posConstraint requires a candidate to appear in the adjacency row of an
// earlier mapping inside a specific cluster CSR.
type posConstraint struct {
	parentDepth int
	csr         *ccsr.CSR
}

// negConstraint rejects candidates adjacent (in any listed cluster side) to
// an earlier mapping whose pattern vertex is a non-neighbor — the
// vertex-induced negation of Algorithm 1/2.
type negConstraint struct {
	parentDepth int
	csrs        []*ccsr.CSR
}

// symConstraint enforces f(order[parentDepth]) < candidate (greater=true)
// or candidate < f(order[parentDepth]) (greater=false).
type symConstraint struct {
	parentDepth int
	greater     bool
}

// level holds the static per-depth matching state plus the SCE cache.
type level struct {
	u     graph.VertexID
	label graph.Label

	pos  []posConstraint
	neg  []negConstraint
	sym  []symConstraint
	pool []graph.VertexID // depth-0 candidate pool

	parentDepths []int // depths whose mapping the candidate set depends on

	// SCE cache: cands is valid while cacheVers matches the version of
	// every parent mapping.
	cands      []graph.VertexID
	candsBuf   []graph.VertexID
	cacheVers  []uint64
	cacheValid bool

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

	// rowsBuf is buildCandidates' scratch for the positive parent rows and,
	// behind them, the negation rows, sized once to the level with the
	// most of both; buildCandidates is never reentered, so one buffer per
	// engine suffices.
	rowsBuf [][]graph.VertexID

	// shared coordinates the workers of a RunParallel invocation; nil for
	// single-threaded runs.
	shared *sharedState

	// prof, when non-nil, accumulates the per-level profile.
	prof *profiler
}

// newEngine precompiles the plan into per-depth constraint lists. It
// returns (nil, nil) when some pattern edge has no matching cluster, which
// means the result is trivially empty.
func newEngine(view *ccsr.View, pl *plan.Plan, opts Options) (*engine, error) {
	return buildEngine(view, pl, opts, nil)
}

// buildEngine is newEngine with an optional preset depth-0 pool: RunParallel
// workers pass their chunk of the prototype's pool so each worker skips the
// cluster scan and label filter buildPool would redo.
func buildEngine(view *ccsr.View, pl *plan.Plan, opts Options, presetPool []graph.VertexID) (*engine, error) {
	p := pl.Pattern
	n := len(pl.Order)
	e := &engine{
		view:    view,
		pl:      pl,
		opts:    opts,
		n:       n,
		levels:  make([]level, n),
		mapping: make([]graph.VertexID, n),
		byVert:  make([]graph.VertexID, p.NumVertices()),
		used:    make([]bool, view.NumVertices()),
		version: make([]uint64, n),
	}
	if opts.TimeLimit > 0 {
		e.deadline = time.Now().Add(opts.TimeLimit)
	}
	if opts.Ctx != nil {
		e.done = opts.Ctx.Done()
	}

	depthOf := make([]int, p.NumVertices())
	for d, u := range pl.Order {
		depthOf[u] = d
	}
	laterLabels := make(map[graph.Label]int) // label -> count among later vertices

	for d := n - 1; d >= 0; d-- {
		u := pl.Order[d]
		lv := &e.levels[d]
		lv.u = u
		lv.label = p.Label(u)

		// Positive constraints: one per pattern edge between u and an
		// earlier vertex, resolved to the cluster side whose rows are
		// indexed by the earlier vertex's mapping.
		ok, err := e.buildPositive(lv, d, depthOf)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil // missing cluster: no embeddings exist
		}

		// Negation constraints come from the dependency DAG: an H-parent
		// that is not a pattern neighbor is a vertex-induced negation
		// dependency.
		if pl.Variant == graph.VertexInduced {
			e.buildNegation(lv, d, depthOf)
		}

		// Factorization eligibility (see package comment).
		if pl.DAG != nil {
			lv.factorizable = len(pl.DAG.Out(int(u))) == 0
		}
		if pl.Variant.Injective() && laterLabels[lv.label] > 0 {
			lv.factorizable = false
		}
		laterLabels[lv.label]++

		lv.parentDepths = collectParents(lv)
		lv.cacheVers = make([]uint64, len(lv.parentDepths))
	}

	// Depth 0 candidate pool: the smallest incident cluster's non-empty
	// rows, filtered to the right label.
	if presetPool != nil {
		e.levels[0].pool = presetPool
	} else if err := e.buildPool(); err != nil {
		return nil, err
	}
	if e.levels[0].pool == nil {
		return nil, nil
	}

	maxRows := 0
	for d := range e.levels {
		n := len(e.levels[d].pos)
		for _, nc := range e.levels[d].neg {
			n += len(nc.csrs)
		}
		maxRows = max(maxRows, n)
	}
	e.rowsBuf = make([][]graph.VertexID, maxRows)

	e.bindNECAliases(depthOf)

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
		if int(v) >= view.NumVertices() || view.VertexLabel(v) != p.Label(u) {
			return nil, nil
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
	return e, nil
}

// buildPositive resolves the pattern edges between order[d] and earlier
// vertices into cluster CSR constraints. It reports ok=false when a needed
// cluster does not exist in the data graph.
func (e *engine) buildPositive(lv *level, d int, depthOf []int) (bool, error) {
	p := e.pl.Pattern
	u := lv.u
	add := func(w graph.VertexID, csr *ccsr.CSR) bool {
		if csr == nil {
			return false
		}
		lv.pos = append(lv.pos, posConstraint{parentDepth: depthOf[w], csr: csr})
		return true
	}
	if p.Directed() {
		// Edges w -> u: candidates are outgoing neighbors of f(w).
		for _, nb := range p.In(u) {
			if depthOf[nb.To] >= d {
				continue
			}
			c := e.view.EdgeCluster(p.Label(nb.To), lv.label, nb.Label)
			if c == nil || !add(nb.To, c.FromSrc()) {
				return false, nil
			}
		}
		// Edges u -> w: candidates are incoming neighbors of f(w).
		for _, nb := range p.Out(u) {
			if depthOf[nb.To] >= d {
				continue
			}
			c := e.view.EdgeCluster(lv.label, p.Label(nb.To), nb.Label)
			if c == nil || !add(nb.To, c.FromDst()) {
				return false, nil
			}
		}
		return true, nil
	}
	for _, nb := range p.Out(u) {
		if depthOf[nb.To] >= d {
			continue
		}
		c := e.view.EdgeCluster(lv.label, p.Label(nb.To), nb.Label)
		if c == nil || !add(nb.To, c.FromSrc()) {
			return false, nil
		}
	}
	return true, nil
}

// buildNegation derives the vertex-induced negation checks for depth d
// from the dependency DAG. For a non-neighbor H-parent, every data arc
// between the mappings is forbidden. For a pattern-neighbor parent, only
// the arcs the pattern actually has are allowed: a reverse arc or an arc
// with a different edge label in the data graph would make the induced
// subgraph non-isomorphic to P, so clusters holding such arcs become
// negation checks too.
func (e *engine) buildNegation(lv *level, d int, depthOf []int) {
	p := e.pl.Pattern
	u := lv.u
	for _, par := range e.pl.DAG.In(int(u)) {
		w := graph.VertexID(par)
		if depthOf[w] >= d {
			continue
		}
		nc := negConstraint{parentDepth: depthOf[w]}
		for _, c := range e.view.PairClusters(p.Label(w), p.Label(u)) {
			if !c.Key.Directed {
				if !patternHasUndirected(p, w, u, c.Key.Edge) {
					nc.csrs = append(nc.csrs, c.Out)
				}
				continue
			}
			// Directed cluster (L(w) -> L(u)): rows of Out are indexed by
			// the w-side; (L(u) -> L(w)): rows of In are indexed by the
			// w-side. Either way Has(f(w), candidate) answers adjacency.
			// Clusters whose arc the pattern requires are excluded — the
			// positive constraints already enforce their presence.
			if c.Key.Src == p.Label(w) && !p.HasEdgeLabeled(w, u, c.Key.Edge) {
				nc.csrs = append(nc.csrs, c.Out)
			}
			if c.Key.Dst == p.Label(w) && !p.HasEdgeLabeled(u, w, c.Key.Edge) {
				nc.csrs = append(nc.csrs, c.In)
			}
		}
		if len(nc.csrs) > 0 {
			lv.neg = append(lv.neg, nc)
		}
	}
}

// patternHasUndirected reports whether the undirected pattern has an edge
// between w and u with the given label.
func patternHasUndirected(p *graph.Graph, w, u graph.VertexID, el graph.EdgeLabel) bool {
	return p.HasEdgeLabeled(w, u, el)
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
	if e.pl.Variant == graph.VertexInduced || e.pl.NECClasses == nil || e.opts.DisableSCECache {
		// Sharing rides on the candidate cache: with the cache disabled a
		// deeper alias lookup would rebuild into the buffer the aliased
		// level is iterating.
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
		sortInts(depths)
		for i := 1; i < len(depths); i++ {
			d := depths[i]
			for j := 0; j < i; j++ {
				ea := depths[j]
				if sameParents(e.levels[d].parentDepths, e.levels[ea].parentDepths) {
					e.levels[d].necAlias = ea
					break
				}
			}
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func sameParents(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func collectParents(lv *level) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range lv.pos {
		if !seen[c.parentDepth] {
			seen[c.parentDepth] = true
			out = append(out, c.parentDepth)
		}
	}
	for _, c := range lv.neg {
		if !seen[c.parentDepth] {
			seen[c.parentDepth] = true
			out = append(out, c.parentDepth)
		}
	}
	return out
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
			if e.shared != nil && e.shared.stop.Load() {
				e.stop = true
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
// counted, and in parallel runs the budget lives in a shared counter whose
// slots are reserved with CompareAndSwap, so no worker can push the total
// past the limit between check and emission.
//
//csce:hotpath runs once per embedding; counting must not allocate
func (e *engine) emit(factor uint64) {
	switch {
	case e.shared != nil && e.shared.limit > 0:
		for {
			cur := e.shared.total.Load()
			if cur >= e.shared.limit {
				e.shared.stop.Store(true)
				e.stop = true
				return
			}
			take := factor
			if cur+take >= e.shared.limit {
				take = e.shared.limit - cur
			}
			if e.shared.total.CompareAndSwap(cur, cur+take) {
				factor = take
				if cur+take == e.shared.limit {
					e.stats.LimitHit = true
					e.shared.stop.Store(true)
					e.stop = true
				}
				break
			}
		}
	case e.shared != nil:
		e.shared.total.Add(factor)
	case e.opts.Limit > 0:
		if remaining := e.opts.Limit - e.stats.Embeddings; factor >= remaining {
			factor = remaining
			e.stats.LimitHit = true
			e.stop = true
		}
	}
	e.stats.Embeddings += factor
	if e.opts.OnEmbedding != nil {
		// A callback disables factorization, so factor is 1 here and the
		// reservation above admitted exactly this embedding.
		if !e.opts.OnEmbedding(e.byVert) {
			e.stop = true
		}
	}
}

// candidates returns the candidate list of depth d, reusing the SCE cache
// when no parent mapping changed since it was built.
//
//csce:hotpath the cache-hit path must stay allocation-free
func (e *engine) candidates(d int) []graph.VertexID {
	lv := &e.levels[d]
	if d == 0 {
		return lv.pool
	}
	if lv.necAlias >= 0 {
		// NEC sharing: an equivalent earlier vertex with the same parents
		// has this exact candidate list (its cache is necessarily valid,
		// since its parents are all mapped above us and unchanged).
		e.stats.NECShares++
		if e.prof != nil {
			e.prof.levels[d].NECShares++
		}
		return e.candidates(lv.necAlias)
	}
	if !e.opts.DisableSCECache && lv.cacheValid {
		hit := true
		for i, pd := range lv.parentDepths {
			if lv.cacheVers[i] != e.version[pd] {
				hit = false
				break
			}
		}
		if hit {
			e.stats.CandidateReuses++
			if e.prof != nil {
				e.prof.levels[d].CandidateReuses++
			}
			return lv.cands
		}
	}
	e.stats.CandidateBuilds++
	lv.cands = e.buildCandidates(lv)
	if e.prof != nil {
		e.prof.levels[d].CandidateBuilds++
		e.prof.levels[d].CandidateTotal += uint64(len(lv.cands))
	}
	if !e.opts.DisableSCECache {
		for i, pd := range lv.parentDepths {
			lv.cacheVers[i] = e.version[pd]
		}
		lv.cacheValid = true
	}
	return lv.cands
}

// buildCandidates intersects the positive parent rows and applies the
// negation filter. The returned slice aliases lv.candsBuf unless the
// smallest parent row is returned as it is — it is empty, or it is the
// single positive constraint and there is no negation — in which case it
// aliases cluster memory directly (zero copy).
//
//csce:hotpath rebuilt on every cache miss; row scratch and output buffer are engine-owned
func (e *engine) buildCandidates(lv *level) []graph.VertexID {
	rows := e.rowsBuf[:len(lv.pos)]
	smallest := 0
	for i, c := range lv.pos {
		rows[i] = c.csr.Row(e.mapping[c.parentDepth])
		if len(rows[i]) < len(rows[smallest]) {
			smallest = i
		}
	}
	base := rows[smallest]
	if len(base) == 0 || (len(lv.pos) == 1 && len(lv.neg) == 0) {
		return base
	}

	// A negation row depends on its parent's mapping, not on the candidate:
	// look each up once per build, and keep only those that can veto.
	neg := e.rowsBuf[len(lv.pos):len(lv.pos)]
	for _, nc := range lv.neg {
		w := e.mapping[nc.parentDepth]
		for _, csr := range nc.csrs {
			if row := csr.Row(w); len(row) > 0 {
				neg = append(neg, row)
			}
		}
	}

	out := lv.candsBuf[:0]
	for _, v := range base {
		ok := true
		for i, row := range rows {
			if i == smallest {
				continue
			}
			if !ccsr.Contains(row, v) {
				ok = false
				break
			}
		}
		for i := 0; ok && i < len(neg); i++ {
			ok = !ccsr.Contains(neg[i], v)
		}
		if ok {
			out = append(out, v)
		}
	}
	lv.candsBuf = out
	return out
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
