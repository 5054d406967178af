// Package shard is the scatter-gather serving subsystem: one logical
// graph partitioned into K shards, each wrapping its own live.Graph (own
// CCSR store, WAL directory, and mutation applier — K shards give K
// concurrent writers), behind a coordinator that decomposes each pattern
// into STwig-style rooted stars, fans them out to every shard, and joins
// the returned partial embeddings on shared query vertices.
//
// Partitioning contract (see ccsr.Partition): every shard keeps the full
// vertex-label array under the global dense IDs, and stores exactly the
// edges incident to at least one vertex it owns — boundary edges are
// replicated into both owners. A shard therefore sees the complete
// adjacency of every vertex it owns.
//
// Exactness argument. Each STwig is a star: every edge is incident to the
// root. The coordinator matches each twig homomorphically on every shard,
// and a shard returns only rows whose root maps to a vertex it owns: its
// compiled twig program searches from a depth-0 pool of owned vertices
// when the twig's plan orders the root first, and the emit check drops
// any other row, which guards the plans that order another vertex first.
// A twig embedding with root image r exists in owner(r)'s store iff it
// exists in the full graph (all its edges touch r, so all are replicated
// there), and r has exactly one owner — so each twig embedding is
// produced exactly once globally, with no duplicates and no misses across
// boundaries. The natural join on shared query vertices then enforces
// exactly the pattern edges (the twigs cover every edge), which is the
// homomorphism count; the injectivity filter applied while emitting turns
// it into the edge-induced count. Vertex-induced matching needs a cross-shard
// NON-adjacency oracle and is rejected (ErrVertexInduced), mirroring the
// live subscription contract.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/obs"
	"csce/internal/plan"
)

// ErrVertexInduced is returned by Coordinator.Match for the vertex-induced
// variant: deciding non-adjacency of two vertices owned by different
// shards needs edges neither shard is required to store.
var ErrVertexInduced = errors.New(
	"shard: vertex-induced matching needs a cross-shard non-adjacency oracle; sharded graphs serve edge-induced and homomorphic queries only")

// ErrPattern wraps pattern-shape failures (empty or disconnected
// patterns) so the HTTP layer can classify them as client errors.
var ErrPattern = errors.New("shard: invalid pattern")

// Scheme selects how vertices map to shards.
type Scheme uint8

const (
	// SchemeID assigns vertex v to shard v mod K.
	SchemeID Scheme = iota
	// SchemeLabel assigns vertex v to shard label(v) mod K, clustering
	// same-labeled vertices (and so whole CCSR clusters) per shard.
	SchemeLabel
)

// String renders the scheme as its flag name.
func (s Scheme) String() string {
	switch s {
	case SchemeID:
		return "id"
	case SchemeLabel:
		return "label"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// ParseScheme parses a scheme flag value.
func ParseScheme(v string) (Scheme, error) {
	switch v {
	case "", "id":
		return SchemeID, nil
	case "label":
		return SchemeLabel, nil
	default:
		return SchemeID, fmt.Errorf("shard: unknown scheme %q (id, label)", v)
	}
}

// assign computes the owner of one vertex under a scheme.
func (s Scheme) assign(v graph.VertexID, l graph.Label, k int) int {
	if s == SchemeLabel {
		return int(l) % k
	}
	return int(v) % k
}

// ownership is the coordinator's vertex→shard map, shared with every
// local shard for root filtering. The slice is append-only: existing
// entries never change, so a snapshot of the header taken under the read
// lock stays valid (and immutable) however long a match holds it.
type ownership struct {
	mu     sync.RWMutex
	owners []uint16
}

func (o *ownership) snapshot() []uint16 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.owners
}

func (o *ownership) append(owners ...uint16) {
	o.mu.Lock()
	o.owners = append(o.owners, owners...)
	o.mu.Unlock()
}

// truncate withdraws an optimistic extension after a batch that applied
// nowhere. Only ever called by the vertex-adding writer, which holds the
// coordinator's exclusive vertex lock; concurrent readers hold older
// snapshots whose prefix is untouched.
func (o *ownership) truncate(n int) {
	o.mu.Lock()
	o.owners = o.owners[:n]
	o.mu.Unlock()
}

// Twig is one rooted sub-pattern of a decomposition, shipped to shards.
type Twig struct {
	// Sub is the star pattern; vertex 0 is the root.
	Sub *graph.Graph
	// Root is Sub's root index (always 0; kept explicit for the wire).
	Root graph.VertexID
	// QVerts maps Sub vertex index -> original pattern vertex.
	QVerts []graph.VertexID
	// Plan is Sub's homomorphic plan, set by the coordinator (required by
	// MatchPartial): every shard executes it as it is.
	Plan *plan.Plan
}

// PartialRequest asks a shard to match every twig of one query against a
// single pinned snapshot, so all partials from one shard observe one
// epoch.
type PartialRequest struct {
	Twigs []Twig

	// programs is this shard's slot in the decomposition the twigs came
	// from (Decomposition.programs). A local shard keeps its compiled twigs
	// there across queries; nil makes it compile them for this request
	// alone.
	programs *atomic.Pointer[twigPrograms]
}

// twigPrograms is one shard's twigs of one decomposition compiled against
// one of its snapshots, in twig order. version is that snapshot store's
// ccsr.Store.Version: the programs run on no other store.
type twigPrograms struct {
	version uint64
	progs   []*exec.Program
}

// TwigMatches holds one twig's shard-local rows back to back, each
// len(Twig.QVerts) ids aligned to Twig.QVerts.
type TwigMatches struct {
	Flat []graph.VertexID
}

// PartialResult is one shard's answer: per-twig rows rooted at vertices
// the shard owns, all read at Epoch. Steps and the three times are summed
// over the twigs the shard searched: cluster read, plan preparation and
// search, as core.MatchResult splits them. Compiled counts the twigs the
// shard compiled for this request, and ReadTime includes that compile: 0
// and about 0 when it ran programs compiled for an earlier request.
type PartialResult struct {
	Epoch     uint64
	Twigs     []TwigMatches
	Steps     uint64
	Compiled  int
	ReadTime  time.Duration
	PlanTime  time.Duration
	ExecTime  time.Duration
	Cancelled bool
}

// Stats is one shard's point-in-time state.
type Stats struct {
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`
	// Vertices is the global vertex count (label arrays are replicated).
	Vertices int `json:"vertices"`
	// LocalVertices is how many vertices this shard owns.
	LocalVertices int `json:"local_vertices"`
	// Edges is how many edges the shard stores, replicated boundary edges
	// included.
	Edges int `json:"edges"`
	// BoundaryEdges is how many stored edges cross into another shard.
	BoundaryEdges int `json:"boundary_edges"`
	// Live carries the shard's live-ingest counters (WAL, batches, ...).
	Live live.Stats `json:"live"`
}

// Shard is the narrow coordinator↔shard interface. It is everything the
// coordinator needs, so a future remote shard (its own csced process)
// only has to carry these three calls over the wire.
type Shard interface {
	// MatchPartial matches every requested twig with its plan against
	// one pinned snapshot, returning only rows rooted at vertices the
	// shard owns. A PartialRequest also carries, unexported, the in-process
	// slot where a local shard caches its compiled twigs; a remote shard
	// would not receive it and would compile the plans on its side.
	MatchPartial(ctx context.Context, req PartialRequest) (PartialResult, error)
	// ApplyBatch applies one mutation sub-batch atomically (per shard).
	ApplyBatch(ctx context.Context, muts []live.Mutation) (live.Commit, error)
	// Stats reports the shard's current state.
	Stats() Stats
}

// localShard is the in-process Shard: a live.Graph over a partitioned
// store, plus the shared ownership map for root filtering.
type localShard struct {
	id  int
	g   *live.Graph
	own *ownership

	localVerts atomic.Int64
	boundary   atomic.Int64
}

// newLocalShard wraps one partition; counters are seeded by the caller.
func newLocalShard(id int, g *live.Graph, own *ownership) *localShard {
	return &localShard{id: id, g: g, own: own}
}

// MatchPartial runs every twig's compiled program under a context that
// cancels with ctx but carries no trace, so the per-twig core.read,
// core.plan and exec.search spans are never started: the coordinator's one
// shard.local span reports the twigs' summed times instead (3 × twigs spans
// per shard cost more than they told; EXPERIMENTS.md "Tracing cost"). The
// programs come from the request's slot when they were compiled against
// the pinned snapshot's store; otherwise they are compiled now and put
// there for the next request.
func (sh *localShard) MatchPartial(ctx context.Context, req PartialRequest) (PartialResult, error) {
	if obs.TraceFrom(ctx) != nil {
		ctx = obs.WithTrace(ctx, nil)
	}
	snap := sh.g.Acquire()
	defer snap.Release()
	owners := sh.own.snapshot()
	out := PartialResult{Epoch: snap.Epoch(), Twigs: make([]TwigMatches, len(req.Twigs))}
	slot := req.programs
	if slot == nil {
		slot = new(atomic.Pointer[twigPrograms])
	}
	tp := slot.Load()
	if tp == nil || tp.version != snap.Store().Version() {
		compileStart := time.Now()
		fresh, err := sh.compile(snap.Store(), req.Twigs, owners)
		out.ReadTime = time.Since(compileStart)
		if err != nil {
			return out, err
		}
		// Another request may have filled the slot meanwhile; either
		// program set is exact for its own store, so the loser just goes.
		slot.CompareAndSwap(tp, fresh)
		tp, out.Compiled = fresh, len(req.Twigs)
	}
	eng := snap.Engine()
	// Every twig's rows go to one slab; each twig keeps its capped run.
	var slab []graph.VertexID
	var root graph.VertexID
	keep := func(m []graph.VertexID) bool {
		if sh.owns(owners, m[root]) {
			slab = append(slab, m...) // else another shard owns this root
		}
		return true
	}
	for ti, tw := range req.Twigs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		lo := len(slab)
		root = tw.Root
		res, err := eng.Match(tw.Sub, core.MatchOptions{
			// Twigs always match homomorphically: injectivity is a property
			// of the full embedding and is enforced at the join.
			Variant:     graph.Homomorphic,
			Program:     tp.progs[ti],
			Context:     ctx,
			OnEmbedding: keep,
		})
		if err != nil {
			return out, err
		}
		out.Steps += res.Exec.Steps
		out.ReadTime += res.ReadTime
		out.PlanTime += res.PlanTime
		out.ExecTime += res.ExecTime
		if res.Exec.Cancelled {
			out.Cancelled = true
			return out, nil
		}
		out.Twigs[ti] = TwigMatches{Flat: slab[lo:len(slab):len(slab)]}
	}
	return out, nil
}

// owns reports whether owners assigns v to this shard.
func (sh *localShard) owns(owners []uint16, v graph.VertexID) bool {
	return int(v) < len(owners) && int(owners[v]) == sh.id
}

// compile compiles every twig's plan against store. When a plan orders its
// twig's root first, the program's depth-0 pool keeps only the vertices
// this shard owns, so the search never starts a star another shard
// returns. That holds for the program's whole life: ownership is
// append-only, and a vertex add gives the store a new Version, which makes
// MatchPartial compile again.
func (sh *localShard) compile(store *ccsr.Store, twigs []Twig, owners []uint16) (*twigPrograms, error) {
	tp := &twigPrograms{version: store.Version(), progs: make([]*exec.Program, len(twigs))}
	owned := func(v graph.VertexID) bool { return sh.owns(owners, v) }
	for i, tw := range twigs {
		if tw.Plan == nil {
			return nil, fmt.Errorf("shard: twig %d has no plan", i)
		}
		view, err := store.ReadCSR(tw.Sub, graph.Homomorphic)
		if err != nil {
			return nil, fmt.Errorf("shard: read twig %d clusters: %w", i, err)
		}
		var keep func(graph.VertexID) bool
		if tw.Plan.Order[0] == tw.Root {
			keep = owned
		}
		prog, err := exec.Compile(view, tw.Plan, keep)
		if err != nil {
			return nil, fmt.Errorf("shard: compile twig %d: %w", i, err)
		}
		tp.progs[i] = prog
	}
	return tp, nil
}

func (sh *localShard) ApplyBatch(ctx context.Context, muts []live.Mutation) (live.Commit, error) {
	return sh.g.Mutate(ctx, muts)
}

func (sh *localShard) Stats() Stats {
	snap := sh.g.Acquire()
	defer snap.Release()
	st := snap.Store()
	return Stats{
		ID:            sh.id,
		Epoch:         snap.Epoch(),
		Vertices:      st.NumVertices(),
		LocalVertices: int(sh.localVerts.Load()),
		Edges:         st.NumEdges(),
		BoundaryEdges: int(sh.boundary.Load()),
		Live:          sh.g.Stats(),
	}
}

// seedCounts initializes the maintained gauges from a startup scan.
func (sh *localShard) seedCounts(localVerts, boundary int) {
	sh.localVerts.Store(int64(localVerts))
	sh.boundary.Store(int64(boundary))
}

// engineSnapshot pins the current snapshot's store, read-only, until the
// returned release is called.
func (sh *localShard) engineSnapshot() (*ccsr.Store, func()) {
	snap := sh.g.Acquire()
	return snap.Store(), snap.Release
}
