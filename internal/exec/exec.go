// Package exec is the execution stage of CSCE (the green stage of the
// paper's Fig. 2): a pipelined worst-case-optimal join that grows partial
// embeddings one pattern vertex at a time by intersecting CCSR cluster
// adjacency, for all three subgraph-matching variants.
//
// Sequential candidate equivalence (Section V) is exploited in two ways:
//
//   - Candidate reuse: the candidate set of a pattern vertex depends only on
//     the mappings of its dependency-DAG parents. Each depth builds its
//     candidate list as a chain of filters ordered by parent depth, each
//     cached with the version of its parent's mapping; when backtracking
//     changes only independent vertices, the whole list is reused instead
//     of recomputed, and when it changes only deeper parents, the filters
//     of the shallower ones are. An empty cached list prunes whole subtrees
//     (Finding 3); there is no failing-set pruning beyond that.
//
//   - Factorized counting: a vertex with no dependents among later order
//     positions contributes a plain multiplicative factor to the embedding
//     count, so its candidates need never be enumerated individually. This
//     applies only when counting (no per-embedding callback), and, for
//     injective variants, only when no later pattern vertex shares its label.
package exec

import (
	"context"
	"fmt"
	"time"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/obs"
	"csce/internal/plan"
)

// Options controls one matching run.
type Options struct {
	// Limit stops the search once this many embeddings were found
	// (0 = unlimited). The limit is exact: a factorized level's
	// multiplicative factor is clamped to the remaining budget.
	Limit uint64
	// TimeLimit aborts the search after the given duration (0 = none).
	TimeLimit time.Duration
	// Ctx, when non-nil, cancels the search cooperatively: the backtracking
	// loop polls Ctx.Done() every ~1k extension steps and stops with
	// Stats.Cancelled set. Cancellation is graceful — partial statistics are
	// returned with a nil error, mirroring TimeLimit — so callers decide
	// whether a cut-short search is a failure. This is what lets a serving
	// layer stop burning cores when a client disconnects.
	Ctx context.Context
	// OnEmbedding, when non-nil, receives every embedding as a slice
	// indexed by pattern vertex ID (valid only during the call). Returning
	// false stops the search. Setting a callback disables factorized
	// counting so every embedding is materialized.
	OnEmbedding func(mapping []graph.VertexID) bool
	// DisableSCECache turns off candidate reuse (ablation).
	DisableSCECache bool
	// DisableFactorization turns off factorized counting (ablation).
	DisableFactorization bool
	// SymmetryConstraints lists pattern vertex pairs (a,b) that must map
	// with f(a) < f(b); used by the symmetry-breaking ablation (Fig. 14a)
	// and the clique case study. Constraints disable factorization.
	SymmetryConstraints [][2]graph.VertexID
	// Pinned fixes pattern vertices to specific data vertices before the
	// search starts — the building block of continuous (delta) matching,
	// where a pattern edge is pinned onto a freshly inserted data edge.
	// Pinned levels disable factorization.
	Pinned [][2]graph.VertexID
	// Profile collects a per-level execution profile into Stats.Profile
	// (a few counter increments per step; prefer leaving it off when
	// benchmarking the engine itself).
	Profile bool
}

// Stats reports the outcome of a run.
type Stats struct {
	// Embeddings is the number of embeddings found (mappings, as in the
	// paper's convention of counting automorphic images separately unless
	// symmetry constraints are given).
	Embeddings uint64
	// Steps counts candidate extensions attempted.
	Steps uint64
	// CandidateBuilds counts candidate-set constructions.
	CandidateBuilds uint64
	// CandidateReuses counts SCE cache hits — candidate sets reused across
	// sibling mappings of independent vertices.
	CandidateReuses uint64
	// NECShares counts candidate lists shared between NEC-equivalent
	// pattern vertices.
	NECShares uint64
	// FactorizedLevels counts how often a level was folded into a
	// multiplicative factor instead of being enumerated.
	FactorizedLevels uint64
	// TimedOut is set when TimeLimit aborted the search.
	TimedOut bool
	// Cancelled is set when Options.Ctx aborted the search.
	Cancelled bool
	// LimitHit is set when Limit stopped the search.
	LimitHit bool
	// Elapsed is the wall-clock matching time.
	Elapsed time.Duration
	// Profile is the per-level execution profile when Options.Profile was
	// set, else nil.
	Profile *Profile
}

// Throughput returns embeddings per second, the Fig. 7/8 metric.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Embeddings) / s.Elapsed.Seconds()
}

// Run matches the plan's pattern against the clustered data graph view and
// returns matching statistics. The view must come from the same store the
// plan was optimized against and must have been read with the same variant
// (ReadCSR loads the negation clusters vertex-induced matching needs).
func Run(view *ccsr.View, pl *plan.Plan, opts Options) (Stats, error) {
	e, err := newEngine(view, pl, opts)
	if err != nil {
		return Stats{}, err
	}
	if e == nil {
		return Stats{}, nil // a pattern edge has no matching cluster: empty result
	}
	return e.execute(), nil
}

// execute runs the search of a constructed engine and returns its Stats.
func (e *engine) execute() Stats {
	if e.opts.Profile {
		e.prof = newProfiler(e)
	}
	// A traced context (obs.WithTrace) gets an "exec.search" span covering
	// the backtracking loop — the deepest hop of the trace's propagation
	// chain (server → core → exec). Untraced callers build no attributes.
	ctx := e.opts.Ctx
	_, endSpan := obs.StartSpanCtx(ctx, "exec.search")
	start := time.Now()
	e.run()
	e.stats.Elapsed = time.Since(start)
	if obs.Traced(ctx) {
		endSpan(obs.Int("embeddings", int64(e.stats.Embeddings)),
			obs.Int("steps", int64(e.stats.Steps)),
			obs.Int("candidate_builds", int64(e.stats.CandidateBuilds)),
			obs.Int("candidate_reuses", int64(e.stats.CandidateReuses)))
	}
	if e.prof != nil {
		e.stats.Profile = &Profile{Levels: e.prof.levels, Elapsed: e.stats.Elapsed}
	}
	return e.stats
}

// RunWithProfile is Run plus a per-level execution profile (the PROFILE
// counterpart to the plan's EXPLAIN view) — a convenience wrapper over
// Options.Profile for callers that always want the breakdown.
func RunWithProfile(view *ccsr.View, pl *plan.Plan, opts Options) (Stats, Profile, error) {
	opts.Profile = true
	st, err := Run(view, pl, opts)
	if err != nil || st.Profile == nil {
		return st, Profile{}, err
	}
	return st, *st.Profile, nil
}

// Count is a convenience wrapper returning only the embedding count.
func Count(view *ccsr.View, pl *plan.Plan) (uint64, error) {
	st, err := Run(view, pl, Options{})
	return st.Embeddings, err
}

// errInternal marks impossible states; surfaced instead of panicking.
func errInternal(format string, args ...any) error {
	return fmt.Errorf("exec: internal: "+format, args...)
}
