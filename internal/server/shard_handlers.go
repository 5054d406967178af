package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/obs"
	"csce/internal/prefilter"
	"csce/internal/shard"
)

// shardedMatchArgs carries the already-validated, already-admitted state
// from handleMatch into the sharded continuation.
type shardedMatchArgs struct {
	start   time.Time
	tr      *obs.Trace
	rctx    context.Context
	ent     *Entry
	params  matchParams
	pattern *graph.Graph
	// pre is the admission pre-filter decision handleMatch already took
	// (always an admit here — rejects return before the slot wait);
	// preChecked distinguishes it from a skipped check so the coordinator
	// is told not to re-check and the false-admit tally stays honest.
	pre        prefilter.Decision
	preChecked bool
}

// matchSharded is the scatter-gather continuation of handleMatch: the
// coordinator decomposes the pattern (cached by the shard-set epoch
// vector), fans the twigs out to every shard, joins the partials, and
// this handler streams the verified full embeddings as NDJSON — the same
// wire format as the single-store path, with a summary line carrying the
// scatter/join breakdown instead of the per-level profile.
func (s *Server) matchSharded(w http.ResponseWriter, r *http.Request, a shardedMatchArgs) {
	coord := a.ent.Sharded
	s.metrics.shardQueries.Add(1)

	ctx, cancel := context.WithTimeout(a.rctx, a.params.timeout)
	defer cancel()

	stream := newMatchStream(w)
	defer stream.end()

	execSpanStart := time.Since(a.tr.Begin)
	matchStart := time.Now()
	res, matchErr := coord.Match(ctx, a.pattern, shard.MatchOptions{
		Variant:     a.params.variant,
		Mode:        a.params.mode,
		Limit:       a.params.limit,
		Workers:     a.params.workers,
		OnEmbedding: stream.embedding,
		// handleMatch already ran the pre-filter before the slot wait;
		// re-checking here would double-count every query.
		SkipPrefilter: a.preChecked,
	})
	emitted, streamDur, streamDead := stream.end()
	if matchErr == nil && res.RejectedBy != "" {
		// Backstop: the coordinator's own gate fired because the server-side
		// check was skipped. Same wire contract as a pre-admission reject;
		// nothing has been streamed yet, so the summary is the whole body.
		s.metrics.recordPrefilterCheck(res.Reject)
		s.writePrefilterReject(w, a.start, a.tr, a.ent, res.Reject, res.Reject.Reason(coord.Names()))
		return
	}
	matchWall := time.Since(matchStart)
	execSpanEnd := time.Since(a.tr.Begin)
	a.tr.AddSpan(phaseExec, execSpanStart, execSpanEnd-streamDur,
		obs.Int("steps", int64(res.Steps)),
		obs.Int("partials", int64(res.Partials)))
	a.tr.AddSpan(phaseStream, execSpanEnd-streamDur, execSpanEnd,
		obs.Int("embeddings", int64(emitted)))
	s.metrics.recordPhase(phaseExec, matchWall-streamDur)
	s.metrics.recordPhase(phaseStream, streamDur)
	s.metrics.embeddingsEmitted.Add(emitted)
	s.metrics.execSteps.Add(res.Steps)
	s.metrics.shardPartials.Add(res.Partials)
	s.metrics.shardJoinCandidates.Add(res.JoinCandidates)

	timedOut := errors.Is(ctx.Err(), context.DeadlineExceeded)
	cancelled := res.Cancelled || errors.Is(matchErr, context.Canceled) ||
		errors.Is(matchErr, context.DeadlineExceeded) || streamDead
	if matchErr != nil && !cancelled {
		// Pattern-shape errors (vertex-induced, disconnected) are the
		// client's; anything else is ours.
		if errors.Is(matchErr, shard.ErrVertexInduced) || errors.Is(matchErr, shard.ErrPattern) {
			s.metrics.queriesBadRequest.Add(1)
			jsonError(w, http.StatusUnprocessableEntity, matchErr.Error())
			return
		}
		s.metrics.queriesErrored.Add(1)
		jsonError(w, http.StatusInternalServerError, fmt.Sprintf("match: %v", matchErr))
		s.log.Error("query failed", "trace_id", a.tr.ID, "graph", a.ent.Name, "error", matchErr)
		a.tr.Finish("http.match", obs.Str("graph", a.ent.Name), obs.Str("outcome", "error"),
			obs.Str("error", matchErr.Error()))
		return
	}
	outcome := s.recordOutcome(timedOut, streamDead, cancelled)
	if a.preChecked && outcome == "ok" && res.Embeddings == 0 {
		s.metrics.recordPrefilterFalseAdmit(a.pre)
	}

	total := time.Since(a.start)
	s.log.Info("query",
		"trace_id", a.tr.ID,
		"graph", a.ent.Name,
		"sharded", true,
		"outcome", outcome,
		"embeddings", res.Embeddings,
		"twigs", res.Twigs,
		"partials", res.Partials,
		"join_candidates", res.JoinCandidates,
		"decomp_cache", cacheOutcome(res.DecompCacheHit),
		"total_ms", durMs(total),
		"scatter_ms", durMs(res.ScatterTime),
		"join_ms", durMs(res.JoinTime),
	)
	ft, exported := a.tr.Finish("http.match",
		obs.Str("graph", a.ent.Name),
		obs.Str("outcome", outcome),
		obs.Int("shards", int64(coord.K())),
		obs.Int("twigs", int64(res.Twigs)),
		obs.Int("partials", int64(res.Partials)),
		obs.Int("embeddings", int64(res.Embeddings)),
		obs.Int("steps", int64(res.Steps)))
	if s.slowlog.Qualifies(total) {
		s.metrics.slowQueries.Add(1)
		s.slowlog.Add(obs.SlowRecord{
			TraceID:  a.tr.ID,
			Start:    a.start,
			Duration: total,
			Graph:    a.ent.Name,
			Outcome:  outcome,
			Spans:    ft.Spans,
			Exported: exported,
			TraceURL: traceURL(a.tr.ID),
			Detail: map[string]any{
				"sharded": true,
				"pattern": map[string]any{
					"vertices": a.pattern.NumVertices(),
					"edges":    a.pattern.NumEdges(),
				},
				"params": map[string]any{
					"variant": a.params.variant.String(),
					"mode":    a.params.mode.String(),
					"limit":   a.params.limit,
					"workers": a.params.workers,
				},
				"twigs":           res.Twigs,
				"partials":        res.Partials,
				"join_candidates": res.JoinCandidates,
				"decomp_cache":    cacheOutcome(res.DecompCacheHit),
				"epochs":          res.Epochs,
				"embeddings":      res.Embeddings,
				"steps":           res.Steps,
			},
		})
	}

	summary := map[string]any{
		"done":            true,
		"trace_id":        a.tr.ID,
		"graph":           a.ent.Name,
		"sharded":         true,
		"shards":          coord.K(),
		"embeddings":      res.Embeddings,
		"limit":           a.params.limit,
		"limit_hit":       res.LimitHit,
		"cancelled":       cancelled,
		"timed_out":       timedOut,
		"decomp_cache":    cacheOutcome(res.DecompCacheHit),
		"twigs":           res.Twigs,
		"partials":        res.Partials,
		"join_candidates": res.JoinCandidates,
		"epochs":          res.Epochs,
		"steps":           res.Steps,
		"scatter_ms":      durMs(res.ScatterTime),
		"join_ms":         durMs(res.JoinTime),
	}
	if a.params.profile {
		summary["spans"] = a.tr.SpanDoc()
	}
	stream.summary(summary)
}

// mutateSharded is handleMutate's coordinator branch: the batch is routed
// into per-shard sub-batches (vertex adds broadcast, edge ops to their
// owners, cross-shard edges to both) and applied with one writer per
// shard.
func (s *Server) mutateSharded(w http.ResponseWriter, tr *obs.Trace, rctx context.Context,
	start time.Time, ent *Entry, muts []live.Mutation) {
	res, err := ent.Sharded.Mutate(rctx, muts)
	if err != nil {
		if errors.Is(err, live.ErrClosed) {
			jsonError(w, http.StatusServiceUnavailable, "graph is closed")
			return
		}
		s.metrics.mutationsFailed.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error":    err.Error(),
			"trace_id": tr.ID,
		})
		s.log.Warn("mutation batch rejected", "trace_id", tr.ID, "graph", ent.Name, "error", err)
		tr.Finish("http.mutate", obs.Str("graph", ent.Name), obs.Str("outcome", "rejected"),
			obs.Int("mutations", int64(len(muts))))
		return
	}
	s.metrics.mutationsOK.Add(1)
	s.log.Info("mutation batch",
		"trace_id", tr.ID,
		"graph", ent.Name,
		"sharded", true,
		"mutations", res.Mutations,
		"shards_touched", res.ShardsTouched,
		"total_ms", durMs(time.Since(start)),
	)
	doc := map[string]any{
		"applied":        res.Mutations,
		"trace_id":       tr.ID,
		"sharded":        true,
		"shards_touched": res.ShardsTouched,
		"epochs":         res.Epochs,
	}
	if len(res.AddedVertices) > 0 {
		doc["added_vertices"] = res.AddedVertices
	}
	tr.Finish("http.mutate",
		obs.Str("graph", ent.Name),
		obs.Str("outcome", "ok"),
		obs.Int("mutations", int64(res.Mutations)),
		obs.Int("shards_touched", int64(res.ShardsTouched)))
	writeJSON(w, http.StatusOK, doc)
}

// handleLoadGraph registers a graph at runtime: the body is the edge-list
// text format, ?shards=K (with optional &scheme=id|label) loads it
// sharded behind a scatter-gather coordinator, otherwise it becomes a
// normal single-store live graph. 409 on duplicate names.
func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	tr := s.newTrace()
	w.Header().Set("X-Trace-Id", string(tr.ID))
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	name := r.PathValue("name")
	q := r.URL.Query()
	shards := 0
	if raw := q.Get("shards"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 1024 {
			jsonError(w, http.StatusBadRequest, fmt.Sprintf("bad shards %q (1..1024)", raw))
			return
		}
		shards = n
	}
	scheme, err := shard.ParseScheme(q.Get("scheme"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}

	names := graph.NewLabelTable()
	g, err := graph.ParseWith(http.MaxBytesReader(w, r.Body, s.cfg.MaxPatternBytes), names)
	if err != nil {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("parse graph: %v", err))
		return
	}
	start := time.Now()
	eng := core.FromStore(ccsr.Build(g))

	var ent *Entry
	if shards > 0 {
		ent, err = s.reg.AddSharded(name, eng, shards, scheme)
	} else {
		ent, err = s.reg.Add(name, eng)
	}
	if err != nil {
		status := http.StatusBadRequest
		if _, dup := s.reg.Get(name); dup {
			status = http.StatusConflict
		}
		jsonError(w, status, err.Error())
		return
	}
	v, ed, _ := ent.Counts()
	s.log.Info("graph loaded",
		"trace_id", tr.ID, "graph", name, "vertices", v, "edges", ed,
		"shards", shards, "build_ms", durMs(time.Since(start)))
	tr.Finish("http.load",
		obs.Str("graph", name),
		obs.Int("vertices", int64(v)),
		obs.Int("edges", int64(ed)),
		obs.Int("shards", int64(shards)))
	doc := map[string]any{
		"loaded":   true,
		"trace_id": tr.ID,
		"graph":    name,
		"vertices": v,
		"edges":    ed,
		"directed": ent.Directed,
	}
	if shards > 0 {
		doc["shards"] = shards
		doc["scheme"] = scheme.String()
	}
	writeJSON(w, http.StatusCreated, doc)
}

// shardDoc snapshots every sharded graph's coordinator stats for /metrics.
func (s *Server) shardDoc() map[string]shard.CoordStats {
	out := make(map[string]shard.CoordStats)
	for _, e := range s.reg.List() {
		if e.Sharded != nil {
			out[e.Name] = e.Sharded.Stats()
		}
	}
	return out
}
