package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"time"

	"csce/internal/core"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/lru"
	"csce/internal/obs"
	"csce/internal/plan"
	"csce/internal/prefilter"
	"csce/internal/shard"
)

// matchQuery is one match request as it moves through the pipeline.
type matchQuery struct {
	start     time.Time
	tr        *obs.Trace
	ent       *Entry
	params    matchParams
	pattern   *graph.Graph
	admission time.Duration // the wait for a match slot

	// planKey is the plan-cache key planned looked up, at epoch planEpoch;
	// run reuses it when it pins a snapshot at that epoch.
	planKey   string
	planEpoch uint64
}

// backend is the one per-graph choice in the request path: how a graph
// checks, plans, executes and mutates. storeBackend serves a single-store
// graph, shardBackend a sharded one.
type backend interface {
	// planned reports, counting no cache hit or miss, whether the query's
	// plan is cached at the graph's current epoch. A plan is cached only
	// after the pre-filter admitted its pattern, so a planned query is
	// admitted without checking it again. The single-store backend keeps
	// the key it looked up in q for run.
	planned(q *matchQuery) bool
	// check runs the admission pre-filter for the pattern.
	check(p *graph.Graph, v graph.Variant) prefilter.Decision
	// run plans and executes an admitted query, handing each embedding to
	// emit. A badPattern error refuses the query (422); any other result
	// carries a report.
	run(ctx context.Context, q *matchQuery, emit func([]graph.VertexID) bool) (runResult, error)
	// tag adds what identifies the backend to a reply's summary.
	tag(summary map[string]any)
	// mutate commits one batch; the records' summary is the reply.
	mutate(ctx context.Context, muts []live.Mutation) (records, error)
}

// backend picks the backend that serves ent.
func (s *Server) backend(ent *Entry) backend {
	if ent.Sharded != nil {
		return shardBackend{c: ent.Sharded, m: s.metrics}
	}
	return storeBackend{ent: ent, plans: s.plans, m: s.metrics}
}

// runResult is what a backend reports about one executed query: the
// fields every query has, and report, which renders the backend's own
// fields of the query's records once the search and stream times are known.
type runResult struct {
	embeddings, steps   uint64
	limitHit, cancelled bool
	read, plan          time.Duration // the CCSR read; the plan stage
	report              func(exec, stream time.Duration) records
}

// records are what a query or mutation adds, beyond the fields every
// outcome has, to its log line, trace root, reply and slowlog record. The
// slowlog record repeats the reply; slow adds what only an operator
// digging into a slow query needs, and runs only for one.
type records struct {
	log     []any
	trace   []obs.Attr
	summary map[string]any
	slow    func() map[string]any
}

// badPattern marks a run error that is the client's — a pattern the graph
// cannot plan or serve (422) — rather than the server's (500).
type badPattern struct{ error }

// ending is how a query ended, for finish.
type ending struct {
	outcome             string // ok, rejected, timeout, cancelled, disconnect or error
	err                 error  // the failure behind an "error" outcome
	embeddings          uint64
	timedOut, cancelled bool
	records
}

// handleMatch is the match pipeline. Its stages are the query's spans:
// params + parse, prefilter (on a plan-cache miss), admission, plan,
// execute + stream, classify, finish. Only the cache lookup, the check,
// plan and execute depend on the graph's backend.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	// Every query gets a trace the moment it reaches the handler. The ID
	// goes out in the response header immediately (even for rejections),
	// into every structured log line, into the NDJSON summary, and into
	// the slow-query log — one grep correlates all four.
	q := &matchQuery{start: time.Now(), tr: s.newTrace()}
	w.Header().Set("X-Trace-Id", string(q.tr.ID))
	rctx := obs.WithTrace(r.Context(), q.tr)
	defer func() { s.metrics.recordPhase(phaseTotal, time.Since(q.start)) }()
	s.metrics.queriesTotal.Add(1)

	endParse := q.tr.StartSpan("parse")
	status, err := s.parseMatch(w, r, q)
	endParse()
	if err != nil {
		s.metrics.queriesBadRequest.Add(1)
		jsonError(w, status, err.Error())
		return
	}
	be := s.backend(q.ent)

	// Prefilter: an O(pattern) probe of the graph's incrementally
	// maintained signature runs before the slot wait, the snapshot pin and
	// the plan, so a provably-empty query costs none of them — it gets a
	// normal 200 summary with a zero count and the rejecting filter. A query
	// whose plan is cached at the current epoch skips it: the check admitted
	// that pattern before the plan was cached, and a rejected pattern is
	// never planned, so it is checked (and rejected) on every request. A
	// skipped check leaves pre zero, which counts no check and no false
	// admit.
	var pre prefilter.Decision
	if !s.cfg.DisablePrefilter && !be.planned(q) {
		endCheck := q.tr.StartSpan("prefilter.check")
		pre = be.check(q.pattern, q.params.variant)
		s.metrics.recordPrefilterCheck(pre)
		if !pre.Admit {
			// Reason reads the label table that parses and /mutate intern
			// into, so it takes the same lock they do.
			s.names.Lock()
			reason := pre.Reason(q.ent.Names)
			s.names.Unlock()
			filter := string(pre.Filter)
			endCheck(obs.Str("decision", "reject"), obs.Str("filter", filter), obs.Str("reason", reason))
			s.metrics.queriesOK.Add(1)
			s.finish(w, newMatchStream(w), q, be, ending{outcome: "rejected", records: records{
				log:     []any{"rejected_by", filter, "reason", reason},
				trace:   []obs.Attr{obs.Str("rejected_by", filter), obs.Str("reason", reason)},
				summary: map[string]any{"count": 0, "rejected_by": filter, "reason": reason},
			}})
			return
		}
		endCheck(obs.Str("decision", "admit"),
			obs.Int("filters_checked", int64(pre.Checked)))
	}

	// Admission. The wait for a slot is recorded whether the query is
	// admitted, rejected, or abandoned — queueing delay under overload is
	// exactly what the histogram must show.
	endAdmission := q.tr.StartSpan(phaseAdmission)
	admStart := time.Now()
	admErr := s.adm.admit(rctx)
	q.admission = time.Since(admStart)
	s.metrics.recordPhase(phaseAdmission, q.admission)
	endAdmission()
	if admErr != nil {
		if errors.Is(admErr, ErrQueueFull) {
			s.metrics.queriesRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "match queue full, retry later")
			s.log.Warn("query rejected", "trace_id", q.tr.ID, "graph", q.ent.Name, "reason", "queue full")
			return
		}
		// The client went away while queued; nobody is reading the reply.
		s.metrics.queriesCancelled.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "cancelled while queued")
		return
	}
	defer s.adm.release()
	q.ent.queries.Add(1)

	// Plan, execute + stream. The backend interleaves the search with the
	// stream (embeddings go out from inside the search loop), so exec is
	// the run's wall time minus its read, its plan and its stream writes.
	ctx, cancel := context.WithTimeout(rctx, q.params.timeout)
	defer cancel()
	stream := newMatchStream(w)
	defer stream.end()
	runStart := time.Now()
	run, err := be.run(ctx, q, stream.embedding)
	emitted, streamDur, streamDead := stream.end()
	var bad badPattern
	if errors.As(err, &bad) {
		s.metrics.queriesBadRequest.Add(1)
		jsonError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	exec := max(time.Since(runStart)-run.read-run.plan-streamDur, 0)
	execEnd := time.Since(q.tr.Begin) - streamDur
	q.tr.AddSpan(phaseExec, execEnd-exec, execEnd, obs.Int("steps", int64(run.steps)))
	q.tr.AddSpan(phaseStream, execEnd, execEnd+streamDur, obs.Int("embeddings", int64(emitted)))
	s.metrics.recordPhase(phaseRead, run.read)
	s.metrics.recordPhase(phasePlan, run.plan)
	s.metrics.recordPhase(phaseExec, exec)
	s.metrics.recordPhase(phaseStream, streamDur)
	s.metrics.planMicros.Add(uint64(run.plan.Microseconds()))
	s.metrics.execMicros.Add(uint64(exec.Microseconds()))
	s.metrics.embeddingsEmitted.Add(emitted)
	s.metrics.execSteps.Add(run.steps)

	// Classify. A context error surfaced as err means the deadline or
	// disconnect hit before the search started; mid-search cancellation is
	// reported through run.cancelled with a nil error.
	e := ending{
		embeddings: run.embeddings,
		timedOut:   errors.Is(ctx.Err(), context.DeadlineExceeded),
		cancelled: run.cancelled || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) || streamDead,
	}
	if err != nil && !e.cancelled {
		s.metrics.queriesErrored.Add(1)
		e.outcome, e.err = "error", err
		e.records = records{
			log:     []any{"error", err},
			trace:   []obs.Attr{obs.Str("error", err.Error())},
			summary: map[string]any{"error": err.Error()},
		}
	} else {
		e.outcome = s.recordOutcome(e.timedOut, streamDead, e.cancelled)
		if e.outcome == "ok" && run.embeddings == 0 {
			// The cascade admitted a query the executor proved empty: a
			// false admit, charged to the deepest filter that looked at it.
			s.metrics.recordPrefilterFalseAdmit(pre)
		}
		e.records = run.report(exec, streamDur)
		e.trace = append(e.trace, obs.Int("steps", int64(run.steps)))
		e.summary["limit"] = q.params.limit
		e.summary["limit_hit"] = run.limitHit
		e.summary["steps"] = run.steps
	}
	s.finish(w, stream, q, be, e)
}

// parseMatch fills in the query's graph, parameters and pattern, or
// returns the status and error that refuse it.
func (s *Server) parseMatch(w http.ResponseWriter, r *http.Request, q *matchQuery) (int, error) {
	name := r.PathValue("name")
	ent, ok := s.reg.Get(name)
	if !ok {
		return http.StatusNotFound, fmt.Errorf("unknown graph %q", name)
	}
	q.ent = ent
	var err error
	if q.params, err = s.parseMatchParams(r); err != nil {
		return http.StatusBadRequest, err
	}
	if q.pattern, err = s.parsePattern(r, w, ent); err != nil {
		return http.StatusBadRequest, fmt.Errorf("parse pattern: %w", err)
	}
	if q.pattern.Directed() != ent.Directed {
		return http.StatusBadRequest, fmt.Errorf("pattern directedness does not match graph %q", ent.Name)
	}
	return 0, nil
}

// recordOutcome names how a match that did not error ended and counts it.
func (s *Server) recordOutcome(timedOut, streamDead, cancelled bool) string {
	switch {
	case timedOut:
		s.metrics.queriesTimedOut.Add(1)
		return "timeout"
	case streamDead:
		s.metrics.queriesCancelled.Add(1)
		return "disconnect"
	case cancelled:
		s.metrics.queriesCancelled.Add(1)
		return "cancelled"
	}
	s.metrics.queriesOK.Add(1)
	return "ok"
}

// finish writes a query's records the same way for every outcome, in this
// order: the http.match trace root (which flows to the ring and the
// exporter), the slowlog record when the query was slow enough, the reply's
// closing line — the NDJSON summary, or a 500 for an error — and last the
// log lines, so a synchronous log write is never on the client's clock.
func (s *Server) finish(w http.ResponseWriter, stream *matchStream, q *matchQuery, be backend, e ending) {
	total := time.Since(q.start)
	ft, exported := q.tr.Finish("http.match", append([]obs.Attr{
		obs.Str("graph", q.ent.Name),
		obs.Str("outcome", e.outcome),
		obs.Int("embeddings", int64(e.embeddings)),
	}, e.trace...)...)
	be.tag(e.summary)
	slow := s.slowlog.Qualifies(total)
	if slow {
		s.metrics.slowQueries.Add(1)
		detail := map[string]any{
			"embeddings": e.embeddings,
			"pattern": map[string]any{
				"vertices": q.pattern.NumVertices(),
				"edges":    q.pattern.NumEdges(),
			},
			"params": map[string]any{
				"variant": q.params.variant.String(),
				"mode":    q.params.mode.String(),
				"limit":   q.params.limit,
			},
		}
		maps.Copy(detail, e.summary)
		if e.slow != nil {
			maps.Copy(detail, e.slow())
		}
		s.slowlog.Add(obs.SlowRecord{
			TraceID:  q.tr.ID,
			Start:    q.start,
			Duration: total,
			Graph:    q.ent.Name,
			Outcome:  e.outcome,
			Spans:    ft.Spans,
			Exported: exported,
			TraceURL: traceURL(q.tr.ID),
			Detail:   detail,
		})
	}
	if e.err != nil {
		jsonError(w, http.StatusInternalServerError, fmt.Sprintf("match: %v", e.err))
	} else {
		e.summary["done"] = true
		e.summary["trace_id"] = q.tr.ID
		e.summary["graph"] = q.ent.Name
		e.summary["embeddings"] = e.embeddings
		e.summary["cancelled"] = e.cancelled
		e.summary["timed_out"] = e.timedOut
		if q.params.profile {
			// EXPLAIN ANALYZE for CSCE: the phase spans, inline.
			e.summary["spans"] = q.tr.SpanDoc()
		}
		stream.summary(e.summary)
	}

	attrs := append([]any{
		"trace_id", q.tr.ID,
		"graph", q.ent.Name,
		"outcome", e.outcome,
		"embeddings", e.embeddings,
		"total_ms", durMs(total),
	}, e.log...)
	if e.err != nil {
		s.log.Error("query failed", attrs...)
	} else {
		s.log.Info("query", attrs...)
	}
	if slow {
		s.log.Warn("slow query captured",
			"trace_id", q.tr.ID, "graph", q.ent.Name, "total_ms", durMs(total),
			"threshold_ms", durMs(s.slowlog.Threshold()))
	}
}

// storeBackend serves a single-store graph: it pins the current snapshot,
// looks the query up in the server plan cache, and runs the CSCE engine on
// the snapshot, from the cached program on a hit.
type storeBackend struct {
	ent   *Entry
	plans *lru.Cache[*exec.Program]
	m     *metrics
}

func (b storeBackend) planned(q *matchQuery) bool {
	q.planEpoch = b.ent.Live.Epoch()
	q.planKey = planKey(b.ent.Name, q.planEpoch, q.params.variant, q.params.mode, q.pattern)
	return b.plans.Contains(q.planKey)
}

func (b storeBackend) check(p *graph.Graph, v graph.Variant) prefilter.Decision {
	return b.ent.Live.Prefilter().Check(p, v)
}

func (b storeBackend) tag(map[string]any) {}

func (b storeBackend) run(ctx context.Context, q *matchQuery, emit func([]graph.VertexID) bool) (runResult, error) {
	// Pin the current snapshot for the whole query: concurrent mutation
	// batches publish new epochs without touching it.
	snap := b.ent.Live.Acquire()
	defer snap.Release()
	return b.runOn(ctx, q, snap, emit)
}

// runOn plans and executes q on the pinned snapshot snap.
func (b storeBackend) runOn(ctx context.Context, q *matchQuery, snap *live.Snapshot, emit func([]graph.VertexID) bool) (runResult, error) {
	eng, epoch := snap.Engine(), snap.Epoch()

	// Plan. A cache hit costs a lookup and hands over a program compiled
	// against this very snapshot; a miss pays GCF/DAG/LDSF here and the
	// CCSR read and compilation in Match. The key carries the pinned
	// snapshot's epoch, so a program never runs on another snapshot — also
	// when a commit landed after planned looked the key up, which is why
	// planned's key serves only at its own epoch.
	_, endPlan := obs.StartSpanCtx(ctx, phasePlan)
	planStart := time.Now()
	key := q.planKey
	if key == "" || q.planEpoch != epoch {
		key = planKey(b.ent.Name, epoch, q.params.variant, q.params.mode, q.pattern)
	}
	prog, hit := b.plans.Get(key)
	var pl *plan.Plan
	if hit {
		pl = prog.Plan()
	} else {
		var err error
		if pl, err = plan.Optimize(q.pattern, eng.Store(), q.params.variant, q.params.mode); err != nil {
			endPlan()
			return runResult{}, badPattern{fmt.Errorf("optimize: %w", err)}
		}
	}
	planDur := time.Since(planStart)
	cache := lru.Outcome(hit)
	endPlan(obs.Str("cache", cache),
		obs.Int("sce_vertices", int64(pl.SCE.SCEVertices)),
		obs.Int("order_length", int64(len(pl.Order))))

	res, err := eng.Match(q.pattern, core.MatchOptions{
		Variant:      q.params.variant,
		Mode:         q.params.mode,
		Limit:        q.params.limit,
		Context:      ctx,
		PreparedPlan: pl,
		Program:      prog,
		OnEmbedding:  emit,
		// Always profile: the slow-query log must have the per-level
		// breakdown for queries that only reveal themselves as pathological
		// after the fact. Costs a few counter increments per step.
		Profile: true,
	})
	if !hit && res.Program != nil {
		b.keep(key, epoch, res.Program)
	}
	b.m.candidateReuses.Add(res.Exec.CandidateReuses)
	return runResult{
		embeddings: res.Embeddings,
		steps:      res.Exec.Steps,
		limitHit:   res.Exec.LimitHit,
		cancelled:  res.Exec.Cancelled,
		read:       res.ReadTime,
		plan:       planDur,
		report: func(exec, stream time.Duration) records {
			rec := records{
				log: []any{
					"steps", res.Exec.Steps,
					"plan_cache", cache,
					"admission_ms", durMs(q.admission),
					"read_ms", durMs(res.ReadTime),
					"plan_ms", durMs(planDur),
					"exec_ms", durMs(exec),
					"stream_ms", durMs(stream),
				},
				trace: []obs.Attr{
					obs.Str("plan_cache", cache),
					obs.Int("epoch", int64(epoch)),
					obs.Int("candidate_reuses", int64(res.Exec.CandidateReuses)),
				},
				summary: map[string]any{
					"plan_cache":       cache,
					"read_ms":          durMs(res.ReadTime),
					"plan_ms":          durMs(planDur),
					"exec_ms":          durMs(exec),
					"candidate_reuses": res.Exec.CandidateReuses,
				},
				slow: func() map[string]any {
					return map[string]any{
						"candidate_builds": res.Exec.CandidateBuilds,
						"clusters_read":    res.ClustersRead,
						"profile":          profileDoc(res.Profile),
						"plan": map[string]any{
							"order_length":      len(pl.Order),
							"sce_vertices":      pl.SCE.SCEVertices,
							"independent_pairs": pl.SCE.IndependentPairs,
							"total_pairs":       pl.SCE.TotalPairs,
						},
					}
				},
			}
			if q.params.profile {
				rec.summary["profile"] = profileDoc(res.Profile)
			}
			return rec
		},
	}, err
}

// keep caches prog, compiled on the snapshot at epoch, while that snapshot
// is still the graph's current one. A program holds its snapshot's rows,
// and once a commit has moved the epoch on, its key can never be looked
// up again.
func (b storeBackend) keep(key string, epoch uint64, prog *exec.Program) {
	if epoch != b.ent.Live.Epoch() {
		return
	}
	b.plans.Put(key, prog)
	// A commit publishes its epoch before it drops the older entries, so if
	// one published after the check above, either its drop removes this
	// entry or this look sees its epoch.
	if epoch != b.ent.Live.Epoch() {
		b.plans.Delete(key)
	}
}

// dropStale removes the graph's cached programs at epochs before epoch.
// It parses the epoch out of the key: an entry of another graph whose name
// starts with this one's and a '|' may be dropped too, which costs that
// graph a cache miss, never a wrong count.
func (b storeBackend) dropStale(epoch uint64) {
	prefix := b.ent.Name + "|"
	b.plans.DeleteFunc(func(key string) bool {
		rest, ok := strings.CutPrefix(key, prefix)
		if !ok {
			return false
		}
		at, _, _ := strings.Cut(rest, "|")
		n, err := strconv.ParseUint(at, 10, 64)
		return err == nil && n < epoch
	})
}

func (b storeBackend) mutate(ctx context.Context, muts []live.Mutation) (records, error) {
	com, err := b.ent.Live.Mutate(ctx, muts)
	// Whatever the outcome, programs of superseded snapshots go: each pins
	// its snapshot's rows in memory.
	b.dropStale(b.ent.Live.Epoch())
	if err != nil {
		return records{}, err
	}
	doc := map[string]any{
		"first_seq":   com.FirstSeq,
		"last_seq":    com.LastSeq,
		"epoch":       com.Epoch,
		"deltas":      com.Deltas,
		"retractions": com.Retractions,
	}
	if len(com.AddedVertices) > 0 {
		doc["added_vertices"] = com.AddedVertices
	}
	return records{
		log: []any{"epoch", com.Epoch, "last_seq", com.LastSeq, "deltas", com.Deltas},
		trace: []obs.Attr{
			obs.Int("epoch", int64(com.Epoch)),
			obs.Int("first_seq", int64(com.FirstSeq)),
			obs.Int("last_seq", int64(com.LastSeq)),
			obs.Int("deltas", int64(com.Deltas)),
		},
		summary: doc,
	}, nil
}

// planKey identifies a plan: graph name, snapshot epoch, variant, mode, and
// the pattern's exact structure. Two textually different requests with the
// same parsed pattern share a key; isomorphic but differently numbered
// patterns intentionally do not.
func planKey(graphName string, epoch uint64, variant graph.Variant, mode plan.Mode, p *graph.Graph) string {
	var b strings.Builder
	b.Grow(len(graphName) + 48 + p.SignatureSize())
	b.WriteString(graphName)
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(epoch, 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(variant)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(mode)))
	b.WriteByte('|')
	p.WriteSignature(&b)
	return b.String()
}

// shardBackend serves a sharded graph through its scatter-gather
// coordinator: the coordinator decomposes the pattern (cached by the
// shard-set epoch vector), fans the twigs out to every shard, and joins the
// partials into full embeddings.
type shardBackend struct {
	c *shard.Coordinator
	m *metrics
}

func (b shardBackend) planned(q *matchQuery) bool {
	return b.c.Planned(q.pattern, q.params.variant, q.params.mode)
}

func (b shardBackend) check(p *graph.Graph, v graph.Variant) prefilter.Decision {
	if v == graph.VertexInduced {
		// The coordinator refuses the variant (422), and an unsupported
		// variant beats "no results": there is nothing to prove.
		return prefilter.Decision{Admit: true}
	}
	return b.c.PrefilterCheck(p, v)
}

func (b shardBackend) tag(summary map[string]any) {
	summary["sharded"] = true
	summary["shards"] = b.c.K()
}

func (b shardBackend) run(ctx context.Context, q *matchQuery, emit func([]graph.VertexID) bool) (runResult, error) {
	res, err := b.c.Match(ctx, q.pattern, shard.MatchOptions{
		Variant:     q.params.variant,
		Mode:        q.params.mode,
		Limit:       q.params.limit,
		OnEmbedding: emit,
		// The pipeline admitted the query before the slot wait, by a check
		// or by a cached decomposition, whenever the coordinator would check.
		SkipPrefilter: true,
	})
	if errors.Is(err, shard.ErrVertexInduced) || errors.Is(err, shard.ErrPattern) {
		return runResult{}, badPattern{err}
	}
	b.m.shardQueries.Add(1)
	b.m.shardPartials.Add(res.Partials)
	b.m.shardJoinCandidates.Add(res.JoinCandidates)
	cache := lru.Outcome(res.DecompCacheHit)
	return runResult{
		embeddings: res.Embeddings,
		steps:      res.Steps,
		limitHit:   res.LimitHit,
		cancelled:  res.Cancelled,
		plan:       res.PlanTime,
		report: func(exec, _ time.Duration) records {
			return records{
				log: []any{
					"sharded", true,
					"twigs", res.Twigs,
					"partials", res.Partials,
					"join_candidates", res.JoinCandidates,
					"decomp_cache", cache,
					"plan_ms", durMs(res.PlanTime),
					"exec_ms", durMs(exec),
					"scatter_ms", durMs(res.ScatterTime),
					"join_ms", durMs(res.JoinTime),
				},
				trace: []obs.Attr{
					obs.Int("shards", int64(b.c.K())),
					obs.Int("twigs", int64(res.Twigs)),
					obs.Int("partials", int64(res.Partials)),
				},
				summary: map[string]any{
					"decomp_cache":    cache,
					"twigs":           res.Twigs,
					"partials":        res.Partials,
					"join_candidates": res.JoinCandidates,
					"epochs":          res.Epochs,
					"scatter_ms":      durMs(res.ScatterTime),
					"join_ms":         durMs(res.JoinTime),
				},
			}
		},
	}, err
}

// mutate routes the batch into per-shard sub-batches (vertex adds
// broadcast, edge ops to their owners, cross-shard edges to both) and
// applies them with one writer per shard.
func (b shardBackend) mutate(ctx context.Context, muts []live.Mutation) (records, error) {
	res, err := b.c.Mutate(ctx, muts)
	if err != nil {
		return records{}, err
	}
	doc := map[string]any{
		"sharded":        true,
		"shards_touched": res.ShardsTouched,
		"epochs":         res.Epochs,
	}
	if len(res.AddedVertices) > 0 {
		doc["added_vertices"] = res.AddedVertices
	}
	return records{
		log:     []any{"sharded", true, "shards_touched", res.ShardsTouched},
		trace:   []obs.Attr{obs.Int("shards_touched", int64(res.ShardsTouched))},
		summary: doc,
	}, nil
}
