// Package core is the CSCE engine: the paper's primary contribution
// assembled end to end. An Engine owns the offline product of clustering a
// data graph (the CCSR store, Section IV); Match runs the online pipeline
// of Fig. 2 — cluster selection (Algorithm 1), plan optimization with GCF,
// the dependency DAG, and LDSF (Section VI), and the pipelined
// worst-case-optimal join execution with SCE candidate reuse (Section V) —
// for any of the three subgraph-matching variants.
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"csce/internal/ccsr"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/obs"
	"csce/internal/plan"
)

// Engine holds the clustered data graph. Build it once per data graph and
// reuse it across matching tasks; the paper's offline/online split exists
// exactly so clustering is not repeated per task.
type Engine struct {
	store *ccsr.Store
	names *graph.LabelTable
}

// NewEngine clusters g into CCSR form. The original graph is not retained:
// the store is equivalent to it for matching purposes.
func NewEngine(g *graph.Graph) *Engine {
	return &Engine{store: ccsr.Build(g), names: g.Names}
}

// Load reads an engine previously written with Save. The label table
// round-trips (codec version 2), so Names is available for pattern parsing
// just as with a freshly built engine.
func Load(r io.Reader) (*Engine, error) {
	store, err := ccsr.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Engine{store: store, names: store.Names()}, nil
}

// FromStore wraps an existing CCSR store in an engine without re-clustering.
// The live-ingest subsystem uses it to publish mutated snapshot clones; the
// store's own label table serves for pattern parsing, exactly as with Load.
func FromStore(store *ccsr.Store) *Engine {
	return &Engine{store: store, names: store.Names()}
}

// Save serializes the clustered data graph.
func (e *Engine) Save(w io.Writer) error { return e.store.Encode(w) }

// Store exposes the underlying CCSR store (plan inspection, statistics).
func (e *Engine) Store() *ccsr.Store { return e.store }

// Names returns the label table of the originating graph, if known.
// Patterns should be parsed with it so label names align.
func (e *Engine) Names() *graph.LabelTable { return e.names }

// InsertEdge adds an edge to the clustered data graph (incremental CCSR
// maintenance; the engine remains equivalent to re-clustering the mutated
// graph). For an undirected engine the edge is symmetric.
func (e *Engine) InsertEdge(src, dst graph.VertexID, el graph.EdgeLabel) error {
	return e.store.InsertEdge(src, dst, el)
}

// DeleteEdge removes an existing edge from the clustered data graph.
func (e *Engine) DeleteEdge(src, dst graph.VertexID, el graph.EdgeLabel) error {
	return e.store.DeleteEdge(src, dst, el)
}

// AddVertex appends an isolated vertex with the given label and returns
// its ID.
func (e *Engine) AddVertex(l graph.Label) graph.VertexID { return e.store.AddVertex(l) }

// MatchOptions configures one matching task.
type MatchOptions struct {
	// Variant selects edge-induced (default), vertex-induced, or
	// homomorphic matching.
	Variant graph.Variant
	// Mode selects the plan-optimization ablation; the default ModeCSCE is
	// the full pipeline.
	Mode plan.Mode
	// Limit stops after this many embeddings (0 = all), exactly.
	Limit uint64
	// TimeLimit bounds the execution stage (0 = none).
	TimeLimit time.Duration
	// Context, when non-nil, cancels the task cooperatively: it is checked
	// between the read/plan/execute stages and polled inside the
	// backtracking loop, so a timeout or client disconnect stops the search
	// instead of burning cores. Cancellation during execution is graceful —
	// Match returns the partial result with Exec.Cancelled set and a nil
	// error; a context that is already dead before execution starts returns
	// the context's error.
	Context context.Context
	// PreparedPlan, when non-nil, skips the optimization stage: Match
	// compiles and runs this plan. It must have been produced by
	// plan.Optimize (or plan.FromOrder) for the same pattern and variant. A
	// vertex-induced plan must also come from the same store: its DAG holds
	// that store's negation clusters. Any other plan may come from any store
	// over the same labels, since the executor reads only its order, DAG and
	// NEC classes, and the store only steers which connected order is
	// chosen; on the same grounds the sharded coordinator compiles one
	// homomorphic twig plan, optimized on one shard, into a program on every
	// shard.
	PreparedPlan *plan.Plan
	// Program, when non-nil, is run in place of the read, plan and compile
	// stages: a plan already compiled against this engine's store
	// (exec.Compile, or the MatchResult.Program of an earlier task) for the
	// same pattern and variant. Match reads no clusters; the "core.read"
	// span reports the program's cluster count. PreparedPlan and Mode are
	// ignored. A program compiled against any other store, or against this
	// one before a write, fails with exec.ErrForeignStore. The serving
	// layer's plan cache and the shards of a sharded graph hold programs, so
	// a cache hit costs one per-run instantiation.
	Program *exec.Program
	// OnEmbedding receives each embedding, indexed by pattern vertex ID.
	// Return false to stop. Disables factorized counting.
	OnEmbedding func(mapping []graph.VertexID) bool
	// SymmetryBreaking derives f(a)<f(b) constraints from the pattern's
	// automorphism group, so each unordered instance is found exactly once.
	// Embeddings then counts instances, not mappings. (CSCE itself does not
	// apply this by default — Finding 2 — but the Fig. 14a ablation and the
	// clique case study need it.)
	SymmetryBreaking bool
	// DisableSCECache and DisableFactorization switch off the SCE
	// optimizations for ablation runs.
	DisableSCECache      bool
	DisableFactorization bool
	// Profile collects a per-level execution profile (MatchResult.Profile).
	Profile bool
}

// MatchResult reports a matching task with the stage timings the paper's
// experiments break out (cluster reading, optimization, execution).
type MatchResult struct {
	// Embeddings found (mappings; instances when SymmetryBreaking is set).
	Embeddings uint64
	// Plan is the optimized plan, including SCE statistics (Fig. 12).
	Plan *plan.Plan
	// Automorphisms is |Aut(P)| when SymmetryBreaking was used, else 0.
	Automorphisms int

	// ReadTime covers ReadCSR cluster selection (nothing is decompressed).
	ReadTime time.Duration
	// PlanTime covers GCF + DAG + LDSF (+ automorphisms if requested).
	PlanTime time.Duration
	// ExecTime covers the join execution.
	ExecTime time.Duration

	// ClustersRead and ViewBytes quantify CCSR overhead (Fig. 11):
	// ViewBytes is the size of the selected clusters' arrays, which the
	// query references in the store — it is not memory the query
	// allocated. The "core.read" span carries the same number as its
	// view_bytes attribute.
	ClustersRead int
	ViewBytes    int

	// Exec carries the detailed execution counters.
	Exec exec.Stats
	// Profile is the per-level execution profile when requested.
	Profile *exec.Profile
	// Program is the compiled program the task ran: MatchOptions.Program,
	// or the one Match compiled. Later tasks on the same store may run it.
	Program *exec.Program
}

// Total returns the end-to-end time, the paper's primary metric.
func (r MatchResult) Total() time.Duration { return r.ReadTime + r.PlanTime + r.ExecTime }

// Throughput returns embeddings per second of total time (Fig. 7/8).
func (r MatchResult) Throughput() float64 {
	if r.Total() <= 0 {
		return 0
	}
	return float64(r.Embeddings) / r.Total().Seconds()
}

// Match finds all embeddings of pattern p under the given options.
// When opts.Context carries an obs.Trace, Match records "core.read" and
// "core.plan" spans on it (and exec records its own), so a traced query's
// breakdown reaches all the way down without the engine knowing who asked.
func (e *Engine) Match(p *graph.Graph, opts MatchOptions) (MatchResult, error) {
	var res MatchResult

	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return res, err
		}
	}
	prog := opts.Program
	if prog != nil && prog.Plan().Variant != opts.Variant {
		return res, fmt.Errorf("core: program compiled for variant %s, task asks %s", prog.Plan().Variant, opts.Variant)
	}
	_, endRead := obs.StartSpanCtx(opts.Context, "core.read")
	readStart := time.Now()
	var view *ccsr.View
	if prog != nil {
		res.ClustersRead, res.ViewBytes = prog.Clusters(), prog.ViewBytes()
	} else {
		var err error
		if view, err = e.store.ReadCSR(p, opts.Variant); err != nil {
			return res, fmt.Errorf("core: read clusters: %w", err)
		}
		res.ClustersRead = view.NumClusters()
		res.ViewBytes = view.DecompressedBytes()
	}
	endRead(obs.Int("clusters", int64(res.ClustersRead)),
		obs.Int("view_bytes", int64(res.ViewBytes)))
	res.ReadTime = time.Since(readStart)

	_, endPlan := obs.StartSpanCtx(opts.Context, "core.plan")
	planStart := time.Now()
	pl := opts.PreparedPlan
	if prog != nil {
		pl = prog.Plan()
	} else if pl == nil {
		var err error
		pl, err = plan.Optimize(p, e.store, opts.Variant, opts.Mode)
		if err != nil {
			return res, fmt.Errorf("core: optimize: %w", err)
		}
	}
	execOpts := exec.Options{
		Limit:                opts.Limit,
		TimeLimit:            opts.TimeLimit,
		Ctx:                  opts.Context,
		OnEmbedding:          opts.OnEmbedding,
		DisableSCECache:      opts.DisableSCECache,
		DisableFactorization: opts.DisableFactorization,
		Profile:              opts.Profile,
	}
	if opts.SymmetryBreaking {
		auts := plan.Automorphisms(p)
		execOpts.SymmetryConstraints = plan.SymmetryConstraints(p, auts)
		res.Automorphisms = len(auts)
	}
	if obs.Traced(opts.Context) {
		endPlan(obs.Str("mode", pl.Mode.String()),
			obs.Int("sce_vertices", int64(pl.SCE.SCEVertices)),
			obs.Int("cluster_sce_vertices", int64(pl.SCE.ClusterSCEVertices)),
			obs.Int("automorphisms", int64(res.Automorphisms)))
	}
	res.PlanTime = time.Since(planStart)
	res.Plan = pl

	if prog == nil {
		var err error
		if prog, err = exec.Compile(view, pl, nil); err != nil {
			return res, fmt.Errorf("core: execute: %w", err)
		}
	}
	res.Program = prog
	st, err := prog.Run(e.store, execOpts)
	if err != nil {
		return res, fmt.Errorf("core: execute: %w", err)
	}
	res.Exec = st
	res.ExecTime = st.Elapsed
	res.Embeddings = st.Embeddings
	res.Profile = st.Profile
	return res, nil
}

// Count is a convenience wrapper counting all embeddings of p under a
// variant with default options.
func (e *Engine) Count(p *graph.Graph, variant graph.Variant) (uint64, error) {
	res, err := e.Match(p, MatchOptions{Variant: variant})
	return res.Embeddings, err
}

// PlanOnly runs just the optimization pipeline — the Fig. 10 scalability
// experiment measures this stage in isolation for patterns up to 2000
// vertices.
func (e *Engine) PlanOnly(p *graph.Graph, variant graph.Variant) (*plan.Plan, time.Duration, error) {
	start := time.Now()
	pl, err := plan.Optimize(p, e.store, variant, plan.ModeCSCE)
	return pl, time.Since(start), err
}
