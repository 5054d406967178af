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
// root. The coordinator matches each twig homomorphically on every shard
// and keeps only rows whose root maps to a vertex the shard owns. A twig
// embedding with root image r exists in owner(r)'s store iff it exists in
// the full graph (all its edges touch r, so all are replicated there),
// and r has exactly one owner — so each twig embedding is produced exactly
// once globally, with no duplicates and no misses across boundaries. The
// natural join on shared query vertices then enforces exactly the pattern
// edges (the twigs cover every edge), which is the homomorphism count;
// the injectivity filter applied while emitting turns it into the
// edge-induced count. Vertex-induced matching needs a cross-shard
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
}

// TwigMatches holds one twig's shard-local rows back to back, each
// len(Twig.QVerts) ids aligned to Twig.QVerts.
type TwigMatches struct {
	Flat []graph.VertexID
}

// PartialResult is one shard's answer: per-twig rows rooted at vertices
// the shard owns, all read at Epoch. Steps and the three times are summed
// over the twigs the shard searched: cluster read, plan preparation and
// search, as core.MatchResult splits them.
type PartialResult struct {
	Epoch     uint64
	Twigs     []TwigMatches
	Steps     uint64
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
	// shard owns.
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

// MatchPartial runs every twig under a context that cancels with ctx but
// carries no trace, so the per-twig core.read/core.plan/exec.search spans
// are never started: the coordinator's one shard.local span reports the
// twigs' summed times instead (3 × twigs spans per shard cost more than
// they told; EXPERIMENTS.md "Tracing cost").
func (sh *localShard) MatchPartial(ctx context.Context, req PartialRequest) (PartialResult, error) {
	if obs.TraceFrom(ctx) != nil {
		ctx = obs.WithTrace(ctx, nil)
	}
	snap := sh.g.Acquire()
	defer snap.Release()
	eng := snap.Engine()
	owners := sh.own.snapshot()
	out := PartialResult{Epoch: snap.Epoch(), Twigs: make([]TwigMatches, len(req.Twigs))}
	// Every twig's rows go to one slab; each twig keeps its capped run.
	var slab []graph.VertexID
	var root graph.VertexID
	keep := func(m []graph.VertexID) bool {
		if r := m[root]; int(r) < len(owners) && int(owners[r]) == sh.id {
			slab = append(slab, m...) // else another shard owns this root
		}
		return true
	}
	for ti, tw := range req.Twigs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if tw.Plan == nil {
			return out, fmt.Errorf("shard: twig %d has no plan", ti)
		}
		lo := len(slab)
		root = tw.Root
		res, err := eng.Match(tw.Sub, core.MatchOptions{
			// Twigs always match homomorphically: injectivity is a property
			// of the full embedding and is enforced at the join.
			Variant:      graph.Homomorphic,
			PreparedPlan: tw.Plan,
			Context:      ctx,
			OnEmbedding:  keep,
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
