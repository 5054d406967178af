package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/lru"
	"csce/internal/obs"
	"csce/internal/plan"
	"csce/internal/prefilter"
)

// Options configures one sharded graph; the zero value of everything but
// K takes defaults.
type Options struct {
	// K is the shard count (required, >= 1).
	K int
	// Scheme maps vertices to shards (default SchemeID).
	Scheme Scheme
	// Live is the per-shard live.Graph template. Durability.Dir inside it
	// is ignored; WALDir governs durability.
	Live live.Options
	// WALDir, when non-empty, gives every shard its own durable WAL under
	// WALDir/shard-<i>; reopening the same directory recovers each shard
	// and reconciles vertex counts across them.
	WALDir string
	// PlanCacheSize bounds the decomposition LRU (default 128; negative
	// disables caching).
	PlanCacheSize int
	// Observer receives scatter/local/join durations for external
	// histogramming. All hooks optional.
	Observer Observer
	// DisablePrefilter turns off the admission pre-filter check inside
	// Match (PrefilterCheck then always admits). The per-shard signatures
	// are still maintained — they ride each shard's commit path.
	DisablePrefilter bool
}

// Observer carries the coordinator's latency hooks.
type Observer struct {
	// Scatter observes one full fan-out (all shards, all twigs).
	Scatter func(time.Duration)
	// Local observes one shard's MatchPartial call.
	Local func(time.Duration)
	// Join observes one cross-shard join.
	Join func(time.Duration)
}

// Coordinator owns K shards of one logical graph and serves scatter-
// gather matches and routed mutation batches over them. All methods are
// safe for concurrent use.
type Coordinator struct {
	name     string
	k        int
	scheme   Scheme
	directed bool
	names    *graph.LabelTable
	obsv     Observer

	shards []Shard       // the narrow interface the scatter path uses
	locals []*localShard // same shards, for cheap epoch/owner bookkeeping

	// sigs are the per-shard admission signatures, in shard order. Checked
	// as a union: each shard owns its vertices' complete adjacency, so
	// cross-shard sums can only overcount (false admits, never false
	// rejects). Empty when Options.DisablePrefilter was set.
	sigs []*prefilter.Signature

	// own maps every vertex to its shard; vmu serializes ownership
	// growth: vertex-adding batches hold it exclusively (all shards must
	// append vertices in lockstep), edge-only batches share it.
	own *ownership
	vmu sync.RWMutex

	decomp *lru.Cache[*Decomposition]

	// statsMu guards the per-shard stats cache, keyed by shard epoch —
	// the GraphMini-style candidate summaries the decomposer reads.
	statsMu    sync.Mutex
	statsCache []cachedStats

	matches          atomic.Uint64
	prefilterRejects atomic.Uint64

	partials       atomic.Uint64
	joinCandidates atomic.Uint64
	mutBatches     atomic.Uint64
	mutFailed      atomic.Uint64
}

type cachedStats struct {
	epoch uint64
	ok    bool
	st    Stats
	freq  map[graph.Label]int
}

// Open partitions a built store into K shards, wraps each in its own
// live.Graph (own WAL directory under opts.WALDir), and returns the
// coordinator. With durable WALs, each shard first recovers its own log;
// a crash between two shards' appends can leave vertex counts skewed, so
// Open reconciles by topping lagging shards up to the most advanced one
// (labels copied from it — vertex adds are broadcast identically to every
// shard, so the most advanced shard has them all).
func Open(name string, base *ccsr.Store, opts Options) (*Coordinator, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("shard: K must be >= 1, got %d", opts.K)
	}
	if opts.PlanCacheSize == 0 {
		opts.PlanCacheSize = 128
	}
	c := &Coordinator{
		name:     name,
		k:        opts.K,
		scheme:   opts.Scheme,
		directed: base.Directed(),
		names:    base.Names(),
		obsv:     opts.Observer,
		own:      &ownership{},
		decomp:   lru.New[*Decomposition](opts.PlanCacheSize),
	}
	owners := make([]uint16, base.NumVertices())
	for v := range owners {
		owners[v] = uint16(c.scheme.assign(graph.VertexID(v), base.VertexLabel(graph.VertexID(v)), c.k))
	}
	c.own.append(owners...)

	stores, _, err := base.Partition(c.k, func(v graph.VertexID) int {
		return int(owners[v])
	})
	if err != nil {
		return nil, err
	}
	lopts := opts.Live
	for i, st := range stores {
		lopts.Durability.Dir = ""
		if opts.WALDir != "" {
			lopts.Durability.Dir = filepath.Join(opts.WALDir, fmt.Sprintf("shard-%d", i))
		}
		lg, err := live.Open(fmt.Sprintf("%s/shard-%d", name, i), core.FromStore(st), lopts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard: open shard %d: %w", i, err)
		}
		sh := newLocalShard(i, lg, c.own)
		c.locals = append(c.locals, sh)
		c.shards = append(c.shards, sh)
		if !opts.DisablePrefilter {
			c.sigs = append(c.sigs, lg.Prefilter())
		}
	}
	c.statsCache = make([]cachedStats, c.k)
	if err := c.reconcileRecovered(); err != nil {
		c.Close()
		return nil, err
	}
	c.seedCounters()
	return c, nil
}

// reconcileRecovered aligns per-shard vertex counts after WAL recovery
// and extends the ownership map past the base partition.
func (c *Coordinator) reconcileRecovered() error {
	counts := make([]int, c.k)
	ref := 0
	for i, sh := range c.locals {
		st, release := sh.engineSnapshot()
		counts[i] = st.NumVertices()
		release()
		if counts[i] > counts[ref] {
			ref = i
		}
	}
	refStore, release := c.locals[ref].engineSnapshot()
	defer release()
	label := func(v int) graph.Label { return refStore.VertexLabel(graph.VertexID(v)) }
	for v := len(c.own.snapshot()); v < counts[ref]; v++ {
		c.own.append(uint16(c.scheme.assign(graph.VertexID(v), label(v), c.k)))
	}
	for i, sh := range c.locals {
		if counts[i] == counts[ref] {
			continue
		}
		muts := make([]live.Mutation, 0, counts[ref]-counts[i])
		for v := counts[i]; v < counts[ref]; v++ {
			muts = append(muts, live.Mutation{Op: live.OpAddVertex, VertexLabel: label(v)})
		}
		if _, err := sh.ApplyBatch(context.Background(), muts); err != nil {
			return fmt.Errorf("shard: reconcile shard %d vertices: %w", i, err)
		}
	}
	return nil
}

// seedCounters scans each shard's snapshot once to initialize the
// maintained local-vertex and boundary-edge gauges.
func (c *Coordinator) seedCounters() {
	owners := c.own.snapshot()
	localVerts := make([]int, c.k)
	for _, o := range owners {
		localVerts[o]++
	}
	for i, sh := range c.locals {
		st, release := sh.engineSnapshot()
		boundary := 0
		st.EdgesAll(func(src, dst graph.VertexID, _ graph.EdgeLabel) {
			if owners[src] != owners[dst] {
				boundary++
			}
		})
		release()
		sh.seedCounts(localVerts[i], boundary)
	}
}

// Name returns the coordinator's registry name.
func (c *Coordinator) Name() string { return c.name }

// K returns the shard count.
func (c *Coordinator) K() int { return c.k }

// Scheme returns the partitioning scheme.
func (c *Coordinator) Scheme() Scheme { return c.scheme }

// Directed reports the sharded graph's directedness.
func (c *Coordinator) Directed() bool { return c.directed }

// Names returns the shared label table (all shards intern through it).
func (c *Coordinator) Names() *graph.LabelTable { return c.names }

// EpochVector returns every shard's published epoch, in shard order. Two
// vectors are equal iff no shard committed in between — this is the
// freshness component of the decomposition cache key.
func (c *Coordinator) EpochVector() []uint64 {
	out := make([]uint64, c.k)
	for i, sh := range c.locals {
		out[i] = sh.g.Epoch()
	}
	return out
}

// Counts returns the logical graph's current vertex and edge totals. A
// cross-shard edge is stored twice and counted by both owners' boundary
// gauges, so the global count is Σ stored − Σ boundary / 2.
func (c *Coordinator) Counts() (vertices, edges int) {
	vertices = len(c.own.snapshot())
	stored, boundary := 0, 0
	for _, sh := range c.locals {
		st, release := sh.engineSnapshot()
		stored += st.NumEdges()
		release()
		boundary += int(sh.boundary.Load())
	}
	return vertices, stored - boundary/2
}

func (c *Coordinator) cachedShardStats(i int) (Stats, map[graph.Label]int) {
	epoch := c.locals[i].g.Epoch()
	c.statsMu.Lock()
	if cs := c.statsCache[i]; cs.ok && cs.epoch == epoch {
		c.statsMu.Unlock()
		return cs.st, cs.freq
	}
	c.statsMu.Unlock()
	// Recompute outside the lock: Stats pins a snapshot and copies maps.
	st := c.locals[i].Stats()
	store, release := c.locals[i].engineSnapshot()
	freq := store.LabelFrequencies()
	release()
	c.statsMu.Lock()
	c.statsCache[i] = cachedStats{epoch: st.Epoch, ok: true, st: st, freq: freq}
	c.statsMu.Unlock()
	return st, freq
}

// aggregateLabelFreq merges the per-shard label statistics for root
// selection. Vertex labels are replicated to every shard, so the merge
// takes the max per label (all shards agree; max tolerates a shard
// observed mid-commit).
func (c *Coordinator) aggregateLabelFreq() map[graph.Label]int {
	agg := make(map[graph.Label]int)
	for i := range c.locals {
		_, freq := c.cachedShardStats(i)
		for l, n := range freq {
			if n > agg[l] {
				agg[l] = n
			}
		}
	}
	return agg
}

// PrefilterCheck runs the O(pattern) admission cascade over the union of
// the per-shard signatures without touching any shard. It always admits
// when the coordinator was opened with DisablePrefilter.
func (c *Coordinator) PrefilterCheck(p *graph.Graph, variant graph.Variant) prefilter.Decision {
	if len(c.sigs) == 0 {
		return prefilter.Decision{Admit: true}
	}
	return prefilter.CheckMany(c.sigs, p, variant)
}

// Planned reports whether the decomposition cache holds p under variant
// and mode at the current epoch vector, without counting a cache hit or
// miss: Match's own lookup counts the query once. A decomposition is cached
// only after PrefilterCheck admitted the pattern at that vector or an
// earlier one, so the serving layer admits a planned pattern without
// checking it again: at worst it misses a reject that a commit made
// possible since, and a reject is never needed for a correct answer.
func (c *Coordinator) Planned(p *graph.Graph, variant graph.Variant, mode plan.Mode) bool {
	return c.decomp.Contains(decompKey(variant, mode, c.EpochVector(), p))
}

// CoordStats is the coordinator-level stats document.
type CoordStats struct {
	K                int    `json:"k"`
	Scheme           string `json:"scheme"`
	Vertices         int    `json:"vertices"`
	Edges            int    `json:"edges"`
	Matches          uint64 `json:"matches"`
	PrefilterRejects uint64 `json:"prefilter_rejects"`

	Partials       uint64  `json:"partials"`
	JoinCandidates uint64  `json:"join_candidates"`
	MutationOK     uint64  `json:"mutation_batches"`
	MutationFailed uint64  `json:"mutation_batches_failed"`
	DecompHits     uint64  `json:"decomp_cache_hits"`
	DecompMisses   uint64  `json:"decomp_cache_misses"`
	DecompSize     int     `json:"decomp_cache_size"`
	Shards         []Stats `json:"shards"`
}

// Stats returns the coordinator document. Per-shard stats come from the
// epoch-keyed cache: a shard's summary is recomputed only after it commits
// a new epoch (purely monotonic live counters may lag one epoch).
func (c *Coordinator) Stats() CoordStats {
	v, e := c.Counts()
	shards := make([]Stats, c.k)
	for i := range shards {
		shards[i], _ = c.cachedShardStats(i)
	}
	return CoordStats{
		K:                c.k,
		Scheme:           c.scheme.String(),
		Vertices:         v,
		Edges:            e,
		Matches:          c.matches.Load(),
		PrefilterRejects: c.prefilterRejects.Load(),
		Partials:         c.partials.Load(),
		JoinCandidates:   c.joinCandidates.Load(),
		MutationOK:       c.mutBatches.Load(),
		MutationFailed:   c.mutFailed.Load(),
		DecompHits:       c.decomp.Hits(),
		DecompMisses:     c.decomp.Misses(),
		DecompSize:       c.decomp.Len(),
		Shards:           shards,
	}
}

// Close closes every shard's live graph. Idempotent.
func (c *Coordinator) Close() {
	for _, sh := range c.locals {
		sh.g.Close()
	}
}

// MatchOptions are the knobs of one scatter-gather match.
type MatchOptions struct {
	// Variant selects edge-induced or homomorphic matching;
	// vertex-induced returns ErrVertexInduced.
	Variant graph.Variant
	// Mode selects the plan-optimization pipeline of every twig's plan.
	Mode plan.Mode
	// Limit stops after this many embeddings (0 = all), exact.
	Limit uint64
	// SkipPrefilter bypasses Match's admission check. Set it only when the
	// caller already ran PrefilterCheck for this exact pattern and variant,
	// or found it Planned (the serving layer admits before taking an
	// admission slot, so the scatter path must not check — and count — the
	// query twice).
	SkipPrefilter bool
	// OnEmbedding receives each full embedding, indexed by pattern
	// vertex. The slice is reused between calls — copy to retain. Return
	// false to stop.
	OnEmbedding func(mapping []graph.VertexID) bool
}

// MatchResult reports one scatter-gather match.
type MatchResult struct {
	Embeddings uint64
	// Twigs is the decomposition width; Partials the total twig rows the
	// shards returned; JoinCandidates the hash-bucket entries probed.
	Twigs          int
	Partials       uint64
	JoinCandidates uint64
	Steps          uint64
	// Epochs is the snapshot epoch each shard actually answered at.
	Epochs    []uint64
	Cancelled bool
	LimitHit  bool
	// DecompCacheHit reports whether the twig decomposition came from the
	// epoch-vector-keyed cache.
	DecompCacheHit bool
	// PlanTime covers the decomposition: the cache lookup, plus Decompose
	// and the twig plans on a miss.
	PlanTime time.Duration
	// RejectedBy names the admission pre-filter that proved the pattern
	// unmatchable before any decomposition or scatter ("" when the query
	// was admitted); Reject carries the full decision for reporting.
	RejectedBy  prefilter.Filter
	Reject      prefilter.Decision
	ScatterTime time.Duration
	JoinTime    time.Duration
}

// decompose covers p with twigs and plans each once, homomorphically, on
// shard 0's store; DESIGN.md ("Epoch-vector decomposition cache") says why
// one plan is exact on every shard.
func (c *Coordinator) decompose(p *graph.Graph, mode plan.Mode) (*Decomposition, error) {
	freq := c.aggregateLabelFreq()
	dec, err := Decompose(p, func(l graph.Label) int { return freq[l] })
	if err != nil {
		return nil, err
	}
	store, release := c.locals[0].engineSnapshot()
	defer release()
	for i := range dec.Twigs {
		tw := &dec.Twigs[i]
		if tw.Plan, err = plan.Optimize(tw.Sub, store, graph.Homomorphic, mode); err != nil {
			return nil, fmt.Errorf("shard: plan twig %d: %w", i, err)
		}
	}
	return dec, nil
}

// Match runs one pattern over all shards: decompose and plan the twigs
// (cached by pattern + variant + mode + epoch vector), scatter every twig
// to every shard in parallel, then join the partials on shared query
// vertices, streaming full embeddings. When ctx carries an obs.Trace,
// "shard.scatter", per-shard "shard.local", and "shard.join" spans record
// the breakdown; a shard's twig searches add no spans of their own, their
// summed read/plan/search times ride on its shard.local.
// Cancellation mid-search is graceful: partial counts return with
// Cancelled set and a nil error, mirroring core.Match.
func (c *Coordinator) Match(ctx context.Context, p *graph.Graph, opts MatchOptions) (MatchResult, error) {
	var res MatchResult
	if opts.Variant == graph.VertexInduced {
		return res, ErrVertexInduced
	}
	if p.Directed() != c.directed {
		return res, fmt.Errorf("shard: pattern directedness does not match graph %q", c.name)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	c.matches.Add(1)

	// Admission pre-filter: a provably-empty pattern answers here, before
	// the decomposition cache is consulted and before any shard sees a
	// scatter. The serving layer checks earlier still (before its admission
	// slot) and sets SkipPrefilter so the query is not counted twice.
	if !opts.SkipPrefilter {
		_, endCheck := obs.StartSpanCtx(ctx, "prefilter.check")
		d := c.PrefilterCheck(p, opts.Variant)
		if !d.Admit {
			c.prefilterRejects.Add(1)
			endCheck(obs.Str("decision", "reject"), obs.Str("filter", string(d.Filter)),
				obs.Str("reason", d.Reason(c.names)))
			res.RejectedBy = d.Filter
			res.Reject = d
			return res, nil
		}
		endCheck(obs.Str("decision", "admit"))
	}

	_, endDecomp := obs.StartSpanCtx(ctx, "shard.plan")
	planStart := time.Now()
	key := decompKey(opts.Variant, opts.Mode, c.EpochVector(), p)
	dec, hit := c.decomp.Get(key)
	if !hit {
		var err error
		if dec, err = c.decompose(p, opts.Mode); err != nil {
			endDecomp()
			return res, err
		}
		c.decomp.Put(key, dec)
	}
	res.PlanTime = time.Since(planStart)
	res.DecompCacheHit = hit
	res.Twigs = len(dec.Twigs)
	endDecomp(obs.Int("twigs", int64(res.Twigs)), obs.Str("cache", lru.Outcome(hit)))

	// Scatter: one MatchPartial per shard, all twigs against one pinned
	// snapshot each, in parallel. Each shard's "shard.local" is a child of
	// "shard.scatter" and is that shard's only span.
	scatterCtx, endScatter := obs.StartSpanCtx(ctx, "shard.scatter")
	scatterStart := time.Now()
	req := PartialRequest{Twigs: dec.Twigs}
	results := make([]PartialResult, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			localCtx, endLocal := obs.StartSpanCtx(scatterCtx, "shard.local")
			localStart := time.Now()
			results[i], errs[i] = sh.MatchPartial(localCtx, req)
			if obs.Traced(localCtx) {
				r := &results[i]
				var rows uint64
				for ti, tw := range r.Twigs {
					rows += uint64(len(tw.Flat) / len(dec.Twigs[ti].QVerts))
				}
				endLocal(obs.Int("shard", int64(i)),
					obs.Int("epoch", int64(r.Epoch)),
					obs.Int("twigs", int64(len(dec.Twigs))),
					obs.Int("rows", int64(rows)),
					obs.Int("steps", int64(r.Steps)),
					obs.Int("read_us", r.ReadTime.Microseconds()),
					obs.Int("plan_us", r.PlanTime.Microseconds()),
					obs.Int("search_us", r.ExecTime.Microseconds()))
			}
			if c.obsv.Local != nil {
				c.obsv.Local(time.Since(localStart))
			}
		}(i, sh)
	}
	wg.Wait()
	res.ScatterTime = time.Since(scatterStart)
	endScatter(obs.Int("shards", int64(len(c.shards))))
	if c.obsv.Scatter != nil {
		c.obsv.Scatter(res.ScatterTime)
	}

	res.Epochs = make([]uint64, len(results))
	for i, r := range results {
		res.Epochs[i] = r.Epoch
		res.Steps += r.Steps
		res.Cancelled = res.Cancelled || r.Cancelled
	}
	for _, err := range errs {
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			res.Cancelled = true
		case err != nil:
			return res, err
		}
	}
	if res.Cancelled {
		return res, nil
	}

	// Assemble one relation per twig from the shards' slabs.
	rels := make([]partialRel, len(dec.Twigs))
	for ti, tw := range dec.Twigs {
		n := 0
		for _, r := range results {
			n += len(r.Twigs[ti].Flat)
		}
		if n/len(tw.QVerts) > math.MaxInt32 {
			return res, fmt.Errorf("shard: twig %d matched %d rows; the join links at most 2^31-1", ti, n/len(tw.QVerts))
		}
		rels[ti] = partialRel{cols: tw.QVerts, flat: make([]graph.VertexID, 0, n)}
		for _, r := range results {
			rels[ti].flat = append(rels[ti].flat, r.Twigs[ti].Flat...)
		}
		res.Partials += uint64(rels[ti].rows())
	}
	c.partials.Add(res.Partials)

	_, endJoin := obs.StartSpanCtx(ctx, "shard.join")
	joinStart := time.Now()
	emit := func(m []graph.VertexID) bool {
		if opts.OnEmbedding != nil && !opts.OnEmbedding(m) {
			return false
		}
		res.Embeddings++
		return opts.Limit == 0 || res.Embeddings < opts.Limit
	}
	jst := joinPartials(ctx, p.NumVertices(), rels, opts.Variant.Injective(), emit)
	res.JoinTime = time.Since(joinStart)
	endJoin(obs.Int("partials", int64(res.Partials)),
		obs.Int("candidates", int64(jst.Candidates)),
		obs.Int("embeddings", int64(res.Embeddings)))
	if c.obsv.Join != nil {
		c.obsv.Join(res.JoinTime)
	}
	res.JoinCandidates = jst.Candidates
	c.joinCandidates.Add(jst.Candidates)
	res.Cancelled = jst.Cancelled
	res.LimitHit = opts.Limit > 0 && res.Embeddings >= opts.Limit
	return res, nil
}
