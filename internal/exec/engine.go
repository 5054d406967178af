package exec

import (
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
	// prevSame is the deepest earlier depth whose vertex has this level's
	// label, or -1; following prevSame from there visits every earlier
	// depth with the label.
	prevSame int

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

// applyOptions adds what the run's options change to the compiled levels:
// symmetry constraints, pinned vertices and the factorization switches, and
// it drops the NEC aliases when the candidate cache is off. It reports
// false when a pin's label cannot match, which makes the whole search
// empty.
func (e *engine) applyOptions(store *ccsr.Store) bool {
	opts := e.opts
	if opts.DisableSCECache {
		// Sharing rides on the candidate cache: with the cache disabled a
		// deeper alias lookup would rebuild into the buffer the aliased
		// level is iterating.
		for d := range e.levels {
			e.levels[d].necAlias = -1
		}
	}
	// Symmetry constraints attach to the later-ordered endpoint.
	for _, c := range opts.SymmetryConstraints {
		a, b := c[0], c[1] // f(a) < f(b)
		da, db := e.pl.PositionOf(a), e.pl.PositionOf(b)
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
		if int(v) >= store.NumVertices() || store.VertexLabel(v) != e.pl.Pattern.Label(u) {
			return false
		}
		lv := &e.levels[e.pl.PositionOf(u)]
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
		valid := uint64(len(cands))
		if e.pl.Variant.Injective() {
			valid -= e.mappedPeers(lv, cands)
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

// mappedPeers counts the candidates of the factorized level lv that an
// injective run has already used. Every candidate carries lv's label, and
// no later vertex does (or lv would not be factorizable), so the used
// candidates are exactly the earlier same-label depths' mappings that are
// in cands: one binary search per such depth instead of a used mark read
// per candidate. Those depths are all mapped, not factorized, because each
// has a later vertex, lv's, with its label.
//
//csce:hotpath once per factorized level visit
func (e *engine) mappedPeers(lv *level, cands []graph.VertexID) uint64 {
	n := uint64(0)
	for d := lv.prevSame; d >= 0; d = e.levels[d].prevSame {
		if ccsr.Contains(cands, e.mapping[d]) {
			n++
		}
	}
	return n
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

// mergeMax is the longest pair of lists intersect and subtract walk with a
// plain two-pointer merge: when both sides hold at most mergeMax ids, a
// step of one pointer beats a gallop's probes (BenchmarkMerge: 4×4 and
// 16×16 run in about half the gallop's time, and 2×16 and 16×2 in no more).
// Longer lists gallop: at 2×32 and 32×2 the merge walks the long side and
// loses.
const mergeMax = 16

// intersect returns in ∩ row. Both lists ascend. While every element of in
// is kept the result is a prefix of in itself; from the first drop on, the
// kept elements are appended to arena, whose first len(arena) elements are
// never written.
//
//csce:hotpath one call per positive stage recomputed
func intersect(arena, in, row []graph.VertexID) (out, grown []graph.VertexID) {
	if len(in) <= mergeMax && len(row) <= mergeMax {
		return mergeIntersect(arena, in, row)
	}
	return gallopIntersect(arena, in, row)
}

// mergeIntersect is intersect as a two-pointer merge, for short lists.
//
//csce:hotpath one call per short positive stage recomputed
func mergeIntersect(arena, in, row []graph.VertexID) (out, grown []graph.VertexID) {
	start := len(arena)
	copying := false
	i, j := 0, 0
	for i < len(in) && j < len(row) {
		switch v, w := in[i], row[j]; {
		case v == w:
			if copying {
				arena = append(arena, v)
			}
			i++
			j++
		case v < w:
			// v is not in row: everything in row before w is below it.
			if !copying {
				arena = append(arena, in[:i]...)
				copying = true
			}
			i++
		default:
			j++
		}
	}
	if !copying {
		return in[:i], arena
	}
	return arena[start:], arena
}

// gallopIntersect is intersect as a galloping merge: it seeks forward
// through whichever side is behind, so a short side costs O(short ·
// log(long/short)) rather than one binary search per element.
//
//csce:hotpath one call per long positive stage recomputed
func gallopIntersect(arena, in, row []graph.VertexID) (out, grown []graph.VertexID) {
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

// subtract returns in minus the elements of row, merging like intersect.
// While nothing but a leading run is dropped the result is a suffix of in
// itself; otherwise the kept runs between dropped elements are appended to
// arena, whose first len(arena) elements are never written.
//
//csce:hotpath one call per negation stage recomputed
func subtract(arena, in, row []graph.VertexID) (out, grown []graph.VertexID) {
	if len(in) <= mergeMax && len(row) <= mergeMax {
		return mergeSubtract(arena, in, row)
	}
	return gallopSubtract(arena, in, row)
}

// mergeSubtract is subtract as a two-pointer merge, for short lists.
//
//csce:hotpath one call per short negation stage recomputed
func mergeSubtract(arena, in, row []graph.VertexID) (out, grown []graph.VertexID) {
	start := len(arena)
	kept := 0 // in[kept:i] is the pending run of kept elements
	i, j := 0, 0
	for i < len(in) && j < len(row) {
		switch v, w := in[i], row[j]; {
		case v < w:
			i++
		case v > w:
			j++
		default:
			arena = append(arena, in[kept:i]...)
			i++
			j++
			kept = i
		}
	}
	return subtracted(arena, start, in, kept)
}

// gallopSubtract is subtract with gallopIntersect's seeks.
//
//csce:hotpath one call per long negation stage recomputed
func gallopSubtract(arena, in, row []graph.VertexID) (out, grown []graph.VertexID) {
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
	return subtracted(arena, start, in, kept)
}

// subtracted finishes a subtract whose kept runs before in[kept] are
// arena[start:], and everything from in[kept] on is kept.
//
//csce:hotpath once per subtract
func subtracted(arena []graph.VertexID, start int, in []graph.VertexID, kept int) (out, grown []graph.VertexID) {
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
