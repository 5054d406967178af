// Package server is the concurrent match-serving subsystem: a long-lived
// daemon core that amortizes the offline CCSR clustering across many
// concurrent queries. It owns a registry of resident engines, an admission
// valve that sheds overload with 429s instead of queueing unboundedly, an
// LRU plan cache that lets repeated patterns skip GCF/DAG/LDSF
// optimization, and JSON metrics for all of it.
//
// The cancellation contract: every query runs under a context derived from
// the HTTP request with a per-query timeout. The context is threaded
// through core.MatchOptions into the backtracking executor, which polls it
// every ~1k extension steps — so a client disconnect or a timeout stops
// the search within microseconds of in-memory work instead of burning a
// core until the enumeration finishes. Cancellation mid-stream is
// graceful: the response ends with a summary line marked cancelled.
//
// Resident graphs are writable through the live-ingest subsystem
// (internal/live): queries pin an immutable published snapshot — matching
// against it is lock-free by construction — while mutation batches commit
// new epochs through a WAL + snapshot swap, and continuous-query
// subscribers stream the delta embeddings of every committed insertion.
// Mutations pass their own admission valve, so a mutation storm degrades
// into 429s without ever starving reads.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"csce/internal/core"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/obs"
	"csce/internal/obs/export"
	"csce/internal/plan"
	"csce/internal/prefilter"
	"csce/internal/shard"
)

// Config sizes the daemon. The zero value is usable: New fills defaults.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8372"; use ":0" to
	// pick a free port, which Start reports).
	Addr string
	// MatchSlots bounds concurrently executing matches (default 4).
	MatchSlots int
	// QueueDepth bounds matches waiting for a slot; beyond it requests get
	// 429 (default 2×MatchSlots).
	QueueDepth int
	// MaxLimit is the hard cap on embeddings streamed per query; requests
	// without a limit, or above the cap, are clamped (default 10000).
	MaxLimit uint64
	// DefaultTimeout applies when a request has no timeout_ms (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout caps timeout_ms (default 60s).
	MaxTimeout time.Duration
	// MaxExecWorkers caps the per-query workers parameter (default 4).
	MaxExecWorkers int
	// PlanCacheSize bounds the LRU of optimized plans (default 256;
	// negative disables caching).
	PlanCacheSize int
	// MaxPatternBytes bounds the request body (default 1 MiB).
	MaxPatternBytes int64
	// MutateSlots bounds concurrently executing mutation batches; the valve
	// is separate from MatchSlots so mutation storms cannot starve reads
	// (default 1 — commits serialize on the writer lock anyway, so extra
	// slots only buy queueing inside the lock).
	MutateSlots int
	// MutateQueueDepth bounds mutations waiting for a slot; beyond it
	// requests get 429 (default 4×MutateSlots).
	MutateQueueDepth int
	// MaxMutationsPerBatch caps the mutations accepted in one request
	// (default 4096).
	MaxMutationsPerBatch int
	// SubscriberBuffer is the per-subscription event buffer; a subscriber
	// that falls this far behind is dropped instead of blocking commits
	// (default 256).
	SubscriberBuffer int
	// WALRetention bounds each graph's in-memory mutation log (default
	// 4096 entries; sequence numbers survive truncation). It is also the
	// subscriber-resume horizon.
	WALRetention int
	// WALDir enables durable WALs: each graph appends committed mutations
	// to segment files under WALDir/<name> and recovers its state from
	// them when registered (default "" — purely in-memory, a restart
	// discards mutations).
	WALDir string
	// WALFsync is the segment fsync policy when WALDir is set (default
	// live.FsyncAlways: acknowledged batches survive power loss).
	WALFsync live.FsyncPolicy
	// WALFsyncInterval is the background sync period under
	// live.FsyncInterval (default 100ms).
	WALFsyncInterval time.Duration
	// WALSegmentSize rotates WAL segments past this many bytes (default
	// 4 MiB).
	WALSegmentSize int64
	// WALKeepSegments checkpoints and truncates the log once more than
	// this many sealed segments sit wholly below the subscriber-resume
	// window (default 4).
	WALKeepSegments int
	// SlowQueryThreshold is the end-to-end latency at which a query is
	// captured in /debug/slowlog with its trace, plan summary, and
	// per-level execution profile (default 500ms; negative disables).
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring buffer (default 128).
	SlowLogSize int
	// Logger receives one structured line per match query, stamped with
	// the query's trace ID (default: discard).
	Logger *slog.Logger
	// TraceExporter, when set, receives every finished query trace for
	// asynchronous export (OTLP/JSON or Zipkin v2 — see internal/obs/
	// export). The server drains it on Shutdown after the HTTP listener
	// has drained, so no tail spans are lost; it does not create it —
	// csced builds one from -trace-export/-trace-endpoint.
	TraceExporter *export.Exporter
	// TraceRingSize bounds the completed-trace ring behind
	// /debug/trace/{id} (default 256; negative disables retention).
	TraceRingSize int
	// RuntimeStatsInterval is the runtime/metrics polling period for the
	// goroutine/heap/GC gauge surface (default 10s; negative disables).
	RuntimeStatsInterval time.Duration
	// DisablePrefilter turns off the O(pattern) admission pre-filters:
	// queries skip the signature check and go straight to the slot wait and
	// plan cache. Signatures are still maintained (they ride the WAL commit
	// and must stay exact for re-enablement), only the gate is skipped.
	// Set by csced's -prefilter=off; a kill switch and an A/B lever.
	DisablePrefilter bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8372"
	}
	if c.MatchSlots <= 0 {
		c.MatchSlots = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.MatchSlots
	}
	if c.MaxLimit == 0 {
		c.MaxLimit = 10000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxExecWorkers <= 0 {
		c.MaxExecWorkers = 4
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.MaxPatternBytes <= 0 {
		c.MaxPatternBytes = 1 << 20
	}
	if c.MutateSlots <= 0 {
		c.MutateSlots = 1
	}
	if c.MutateQueueDepth == 0 {
		c.MutateQueueDepth = 4 * c.MutateSlots
	}
	if c.MaxMutationsPerBatch <= 0 {
		c.MaxMutationsPerBatch = 4096
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = 256
	}
	if c.WALRetention <= 0 {
		c.WALRetention = 4096
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 500 * time.Millisecond
	}
	if c.SlowQueryThreshold < 0 {
		c.SlowQueryThreshold = 0 // obs.SlowLog treats ≤0 as disabled
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 128
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.TraceRingSize == 0 {
		c.TraceRingSize = 256
	}
	if c.RuntimeStatsInterval == 0 {
		c.RuntimeStatsInterval = 10 * time.Second
	}
	return c
}

// Server is the daemon core. Build with New, register graphs through
// Registry, then Start/Shutdown (or mount Handler in a test server).
type Server struct {
	cfg      Config
	reg      *Registry
	adm      *admission
	mutAdm   *admission // separate valve: mutation storms must not starve reads
	plans    *planCache
	metrics  *metrics
	slowlog  *obs.SlowLog
	log      *slog.Logger
	started  time.Time
	draining atomic.Bool

	// Telemetry export surface: the completed-trace ring behind
	// /debug/trace/{id}, the (optional, csced-built) span exporter, the
	// runtime-stats collector, and the composite sink new traces get.
	traceRing *obs.TraceRing
	exporter  *export.Exporter
	runtime   *obs.RuntimeCollector
	sink      obs.SpanSink

	mu    sync.Mutex // guards http/listener lifecycle
	http  *http.Server
	ln    net.Listener
	names sync.Mutex // serializes pattern parsing into shared label tables
}

// New builds a server; cfg fields at their zero value take defaults.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		adm:     newAdmission(cfg.MatchSlots, cfg.QueueDepth),
		mutAdm:  newAdmission(cfg.MutateSlots, cfg.MutateQueueDepth),
		plans:   newPlanCache(cfg.PlanCacheSize),
		metrics: newMetrics(),
		slowlog: obs.NewSlowLog(cfg.SlowLogSize, cfg.SlowQueryThreshold),
		log:     cfg.Logger,
		started: time.Now(),
	}
	if cfg.TraceRingSize > 0 {
		s.traceRing = obs.NewTraceRing(cfg.TraceRingSize)
	}
	s.exporter = cfg.TraceExporter
	if cfg.RuntimeStatsInterval > 0 {
		s.runtime = obs.NewRuntimeCollector(cfg.RuntimeStatsInterval)
	}
	s.sink = traceSink{ring: s.traceRing, exp: s.exporter}
	s.reg.LiveOpts = live.Options{
		SubscriberBuffer: cfg.SubscriberBuffer,
		WALRetention:     cfg.WALRetention,
		// Dir stays empty here; Registry.Add derives each graph's own
		// subdirectory from WALRoot.
		Durability: live.Durability{
			Fsync:        cfg.WALFsync,
			FsyncEvery:   cfg.WALFsyncInterval,
			SegmentSize:  cfg.WALSegmentSize,
			KeepSegments: cfg.WALKeepSegments,
		},
		Observer: live.Observer{
			WALAppend:       func(d time.Duration) { s.metrics.recordWAL(walAppend, d) },
			WALFsync:        func(d time.Duration) { s.metrics.recordWAL(walFsync, d) },
			WALReplay:       func(d time.Duration) { s.metrics.recordWAL(walReplay, d) },
			WALCheckpoint:   func(d time.Duration) { s.metrics.recordWAL(walCheckpoint, d) },
			ResumeReplay:    func(d time.Duration) { s.metrics.recordWAL(walResume, d) },
			SigMaintain:     func(d time.Duration) { s.metrics.recordWAL(walSignature, d) },
			ResumeLogAppend: func(d time.Duration) { s.metrics.recordWAL(walResumeLog, d) },
		},
	}
	s.reg.WALRoot = cfg.WALDir
	s.reg.DisablePrefilter = cfg.DisablePrefilter
	s.reg.ShardObserver = shard.Observer{
		Scatter: func(d time.Duration) { s.metrics.recordShard(shardStageScatter, d) },
		Local:   func(d time.Duration) { s.metrics.recordShard(shardStageLocal, d) },
		Join:    func(d time.Duration) { s.metrics.recordShard(shardStageJoin, d) },
	}
	return s
}

// Registry exposes the graph registry for loading datasets.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the daemon's HTTP mux (also useful under httptest).
// Every route records its end-to-end latency in a per-endpoint histogram.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs/{name}", s.instrument("load", s.handleLoadGraph))
	mux.HandleFunc("POST /v1/graphs/{name}/match", s.instrument("match", s.handleMatch))
	mux.HandleFunc("POST /v1/graphs/{name}/mutate", s.instrument("mutate", s.handleMutate))
	mux.HandleFunc("GET /v1/graphs/{name}/subscribe", s.instrument("subscribe", s.handleSubscribe))
	mux.HandleFunc("GET /v1/graphs", s.instrument("graphs", s.handleGraphs))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /debug/slowlog", s.instrument("slowlog", s.handleSlowlog))
	mux.HandleFunc("POST /debug/slowlog/threshold", s.instrument("slowlog_threshold", s.handleSlowlogThreshold))
	mux.HandleFunc("GET /debug/trace/{id}", s.instrument("trace", s.handleDebugTrace))
	return mux
}

// instrument wraps a handler with per-endpoint latency recording.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.metrics.recordEndpoint(name, time.Since(start))
	}
}

// Start listens on cfg.Addr and serves in a background goroutine. It
// returns the bound address (resolving ":0") once the listener is live.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler()}
	srv := s.http
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: new work is refused (healthz reports
// draining), live graphs close — which fails further mutations and ends
// every subscription stream, so those long-lived handlers return —
// in-flight queries run to completion, and if the context expires first
// the listener is closed, which cancels the remaining queries' contexts
// and lets cooperative cancellation stop their searches.
//
// The telemetry pipeline shuts down strictly after the HTTP drain: only
// once every in-flight handler has returned (and therefore finished and
// enqueued its trace) is the exporter asked to flush, so a SIGTERM loses
// no tail spans. The exporter drain shares the same deadline context.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.reg.CloseAll()
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	var err error
	if srv != nil {
		if err = srv.Shutdown(ctx); err != nil {
			err = srv.Close()
		}
	}
	s.runtime.Close()
	if s.exporter != nil {
		if expErr := s.exporter.Shutdown(ctx); err == nil {
			err = expErr
		}
	}
	return err
}

// matchParams are the knobs of one match query, parsed and clamped.
type matchParams struct {
	variant graph.Variant
	mode    plan.Mode
	limit   uint64
	timeout time.Duration
	workers int
	profile bool // ?profile=1: return the per-level profile in the summary
}

func (s *Server) parseMatchParams(r *http.Request) (matchParams, error) {
	q := r.URL.Query()
	p := matchParams{
		variant: graph.EdgeInduced,
		mode:    plan.ModeCSCE,
		limit:   s.cfg.MaxLimit,
		timeout: s.cfg.DefaultTimeout,
		workers: 1,
	}
	switch v := q.Get("variant"); v {
	case "", "edge":
		p.variant = graph.EdgeInduced
	case "vertex":
		p.variant = graph.VertexInduced
	case "homo":
		p.variant = graph.Homomorphic
	default:
		return p, fmt.Errorf("unknown variant %q (edge, vertex, homo)", v)
	}
	switch m := q.Get("mode"); m {
	case "", "csce":
		p.mode = plan.ModeCSCE
	case "ri":
		p.mode = plan.ModeRI
	case "ri+cluster":
		p.mode = plan.ModeRICluster
	case "rm":
		p.mode = plan.ModeRM
	case "cost":
		p.mode = plan.ModeCostBased
	default:
		return p, fmt.Errorf("unknown plan mode %q (csce, ri, ri+cluster, rm, cost)", m)
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad limit %q", raw)
		}
		if n == 0 || n > s.cfg.MaxLimit {
			n = s.cfg.MaxLimit
		}
		p.limit = n
	}
	if raw := q.Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			return p, fmt.Errorf("bad timeout_ms %q", raw)
		}
		d := time.Duration(ms) * time.Millisecond
		if d == 0 || d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		p.timeout = d
	}
	if raw := q.Get("workers"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return p, fmt.Errorf("bad workers %q", raw)
		}
		if n > s.cfg.MaxExecWorkers {
			n = s.cfg.MaxExecWorkers
		}
		p.workers = n
	}
	switch raw := q.Get("profile"); raw {
	case "", "0", "false":
	case "1", "true":
		p.profile = true
	default:
		return p, fmt.Errorf("bad profile %q (0 or 1)", raw)
	}
	return p, nil
}

// parsePattern reads the request body in the edge-list text format,
// interning labels through the graph's table. Interning mutates the shared
// table, so parses are serialized; matching itself never touches it.
func (s *Server) parsePattern(r *http.Request, w http.ResponseWriter, ent *Entry) (*graph.Graph, error) {
	s.names.Lock()
	defer s.names.Unlock()
	names := ent.Names
	if names == nil {
		names = graph.NewLabelTable()
	}
	return graph.ParseWith(http.MaxBytesReader(w, r.Body, s.cfg.MaxPatternBytes), names)
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	// Every query gets a trace the moment it reaches the handler. The ID
	// goes out in the response header immediately (even for rejections),
	// into every structured log line, into the NDJSON summary, and into
	// the slow-query log — one grep correlates all four.
	start := time.Now()
	tr := s.newTrace()
	w.Header().Set("X-Trace-Id", string(tr.ID))
	rctx := obs.WithTrace(r.Context(), tr)
	defer func() { s.metrics.recordPhase(phaseTotal, time.Since(start)) }()

	s.metrics.queriesTotal.Add(1)
	name := r.PathValue("name")
	ent, ok := s.reg.Get(name)
	if !ok {
		s.metrics.queriesBadRequest.Add(1)
		jsonError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return
	}
	params, err := s.parseMatchParams(r)
	if err != nil {
		s.metrics.queriesBadRequest.Add(1)
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := s.parsePattern(r, w, ent)
	if err != nil {
		s.metrics.queriesBadRequest.Add(1)
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("parse pattern: %v", err))
		return
	}
	if p.Directed() != ent.Directed {
		s.metrics.queriesBadRequest.Add(1)
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("pattern directedness does not match graph %q", ent.Name))
		return
	}

	// Phase 0: admission pre-filter. An O(pattern) probe of the graph's
	// incrementally-maintained signature runs before the slot wait, the
	// snapshot pin, and the plan-cache lookup, so a provably-empty query
	// costs none of them — it returns a normal 200 summary with a zero
	// count and the rejecting filter's name. Sharded vertex-induced
	// queries skip the check to preserve the coordinator's 422 contract
	// (unsupported variant beats "no results").
	var pre prefilter.Decision
	preChecked := false
	if !s.cfg.DisablePrefilter && !(ent.Sharded != nil && params.variant == graph.VertexInduced) {
		endCheck := tr.StartSpan("prefilter.check")
		if ent.Sharded != nil {
			pre = ent.Sharded.PrefilterCheck(p, params.variant)
		} else {
			pre = ent.Live.Prefilter().Check(p, params.variant)
		}
		preChecked = true
		s.metrics.recordPrefilterCheck(pre)
		if !pre.Admit {
			reason := pre.Reason(ent.Names)
			endCheck(obs.Str("decision", "reject"),
				obs.Str("filter", string(pre.Filter)),
				obs.Str("reason", reason))
			s.writePrefilterReject(w, start, tr, ent, pre, reason)
			return
		}
		endCheck(obs.Str("decision", "admit"),
			obs.Int("filters_checked", int64(pre.Checked)))
	}

	// Phase 1: admission. The wait for a slot is recorded whether the
	// query is admitted, rejected, or abandoned — queueing delay under
	// overload is exactly what the histogram must show.
	endAdmission := tr.StartSpan(phaseAdmission)
	admStart := time.Now()
	admErr := s.adm.admit(rctx)
	s.metrics.recordPhase(phaseAdmission, time.Since(admStart))
	endAdmission()
	if admErr != nil {
		if errors.Is(admErr, ErrQueueFull) {
			s.metrics.queriesRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "match queue full, retry later")
			s.log.Warn("query rejected", "trace_id", tr.ID, "graph", ent.Name, "reason", "queue full")
			return
		}
		// The client went away while queued; nobody is reading the reply.
		s.metrics.queriesCancelled.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "cancelled while queued")
		return
	}
	defer s.adm.release()
	ent.queries.Add(1)

	if ent.Sharded != nil {
		s.matchSharded(w, r, shardedMatchArgs{
			start: start, tr: tr, rctx: rctx, ent: ent, params: params, pattern: p,
			pre: pre, preChecked: preChecked,
		})
		return
	}

	// Pin the current snapshot for the whole query: concurrent mutation
	// batches publish new epochs without touching it, and it is released
	// (possibly draining it) when the handler returns.
	snap := ent.Live.Acquire()
	defer snap.Release()
	eng := snap.Engine()

	// Phase 2: planning. The cache hit path contributes ~0; misses pay
	// GCF/DAG/LDSF. The key carries the snapshot epoch, so plans optimized
	// against superseded statistics age out of the LRU instead of serving
	// forever.
	endPlan := tr.StartSpan(phasePlan)
	planStart := time.Now()
	key := planKey(ent.Name, snap.Epoch(), params.variant, params.mode, p)
	pl, cacheHit := s.plans.get(key)
	if !cacheHit {
		pl, err = plan.Optimize(p, eng.Store(), params.variant, params.mode)
		if err != nil {
			endPlan()
			s.metrics.queriesBadRequest.Add(1)
			jsonError(w, http.StatusUnprocessableEntity, fmt.Sprintf("optimize: %v", err))
			return
		}
		s.plans.put(key, pl)
	}
	planDur := time.Since(planStart)
	s.metrics.recordPhase(phasePlan, planDur)
	s.metrics.planMicros.Add(uint64(planDur.Microseconds()))
	endPlan(obs.Str("cache", cacheOutcome(cacheHit)),
		obs.Int("sce_vertices", int64(pl.SCE.SCEVertices)),
		obs.Int("order_length", int64(len(pl.Order))))

	ctx, cancel := context.WithTimeout(rctx, params.timeout)
	defer cancel()

	stream := newMatchStream(w)
	defer stream.end()

	// Phases 3+4: execution and streaming. The engine interleaves them
	// (embeddings stream from inside the search loop), so the exec phase
	// is the engine wall time minus the accumulated write time.
	execSpanStart := time.Since(tr.Begin)
	matchStart := time.Now()
	res, matchErr := eng.Match(p, core.MatchOptions{
		Variant:      params.variant,
		Mode:         params.mode,
		Limit:        params.limit,
		Workers:      params.workers,
		Context:      ctx,
		PreparedPlan: pl,
		OnEmbedding:  stream.embedding,
		// Always profile: the slow-query log must have the per-level
		// breakdown for queries that only reveal themselves as pathological
		// after the fact. Costs a few counter increments per step.
		Profile: true,
	})
	emitted, streamDur, streamDead := stream.end()
	matchWall := time.Since(matchStart)
	execDur := matchWall - streamDur
	if execDur < 0 {
		execDur = 0
	}
	execSpanEnd := time.Since(tr.Begin)
	tr.AddSpan(phaseExec, execSpanStart, execSpanEnd-streamDur,
		obs.Int("steps", int64(res.Exec.Steps)),
		obs.Int("candidate_reuses", int64(res.Exec.CandidateReuses)))
	tr.AddSpan(phaseStream, execSpanEnd-streamDur, execSpanEnd,
		obs.Int("embeddings", int64(emitted)))
	s.metrics.recordPhase(phaseExec, execDur)
	s.metrics.recordPhase(phaseStream, streamDur)
	s.metrics.embeddingsEmitted.Add(emitted)
	s.metrics.execSteps.Add(res.Exec.Steps)
	s.metrics.candidateReuses.Add(res.Exec.CandidateReuses)
	s.metrics.execMicros.Add(uint64(res.ExecTime.Microseconds()))

	// Classify the outcome. A context error surfaced as matchErr means the
	// deadline or disconnect hit before execution started; mid-search
	// cancellation is reported through Exec.Cancelled with a nil error.
	timedOut := errors.Is(ctx.Err(), context.DeadlineExceeded)
	cancelled := res.Exec.Cancelled || errors.Is(matchErr, context.Canceled) ||
		errors.Is(matchErr, context.DeadlineExceeded) || streamDead
	if matchErr != nil && !cancelled {
		s.metrics.queriesErrored.Add(1)
		jsonError(w, http.StatusInternalServerError, fmt.Sprintf("match: %v", matchErr))
		s.log.Error("query failed", "trace_id", tr.ID, "graph", ent.Name, "error", matchErr)
		tr.Finish("http.match", obs.Str("graph", ent.Name), obs.Str("outcome", "error"),
			obs.Str("error", matchErr.Error()))
		return
	}
	outcome := s.recordOutcome(timedOut, streamDead, cancelled)
	if preChecked && outcome == "ok" && res.Embeddings == 0 {
		// The cascade admitted a query the executor proved empty: a false
		// admit, charged to the deepest filter that looked at it.
		s.metrics.recordPrefilterFalseAdmit(pre)
	}

	total := time.Since(start)
	s.log.Info("query",
		"trace_id", tr.ID,
		"graph", ent.Name,
		"outcome", outcome,
		"embeddings", res.Embeddings,
		"steps", res.Exec.Steps,
		"plan_cache", cacheOutcome(cacheHit),
		"total_ms", durMs(total),
		"admission_ms", durMs(phaseDuration(tr, phaseAdmission)),
		"plan_ms", durMs(planDur),
		"exec_ms", durMs(execDur),
		"stream_ms", durMs(streamDur),
	)
	// Finish the trace: the root span covers the whole request and carries
	// the query's headline facts; the FinishedTrace flows to the ring and
	// the exporter queue via the server sink.
	ft, exported := tr.Finish("http.match",
		obs.Str("graph", ent.Name),
		obs.Str("outcome", outcome),
		obs.Str("plan_cache", cacheOutcome(cacheHit)),
		obs.Int("epoch", int64(snap.Epoch())),
		obs.Int("embeddings", int64(res.Embeddings)),
		obs.Int("steps", int64(res.Exec.Steps)))
	if s.slowlog.Qualifies(total) {
		s.metrics.slowQueries.Add(1)
		s.slowlog.Add(obs.SlowRecord{
			TraceID:  tr.ID,
			Start:    start,
			Duration: total,
			Graph:    ent.Name,
			Outcome:  outcome,
			Spans:    ft.Spans,
			Exported: exported,
			TraceURL: traceURL(tr.ID),
			Detail:   slowDetail(p, params, pl, res, cacheHit),
		})
		s.log.Warn("slow query captured",
			"trace_id", tr.ID, "graph", ent.Name, "total_ms", durMs(total),
			"threshold_ms", durMs(s.slowlog.Threshold()))
	}

	summary := map[string]any{
		"done":             true,
		"trace_id":         tr.ID,
		"graph":            ent.Name,
		"embeddings":       res.Embeddings,
		"limit":            params.limit,
		"limit_hit":        res.Exec.LimitHit,
		"cancelled":        cancelled,
		"timed_out":        timedOut,
		"plan_cache":       cacheOutcome(cacheHit),
		"read_ms":          float64(res.ReadTime.Microseconds()) / 1e3,
		"plan_ms":          float64(res.PlanTime.Microseconds()) / 1e3,
		"exec_ms":          float64(res.ExecTime.Microseconds()) / 1e3,
		"steps":            res.Exec.Steps,
		"candidate_reuses": res.Exec.CandidateReuses,
	}
	if params.profile {
		// EXPLAIN ANALYZE for CSCE: the per-level profile plus the phase
		// spans, inline in the summary line.
		summary["profile"] = profileDoc(res.Profile)
		summary["spans"] = tr.SpanDoc()
	}
	stream.summary(summary)
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

// writePrefilterReject finishes a query the admission cascade proved
// empty: a normal 200 NDJSON summary with a zero count and the rejecting
// filter — never a silent empty result — plus the same log line, trace
// finish, and slow-query capture an executed query would get.
func (s *Server) writePrefilterReject(w http.ResponseWriter, start time.Time, tr *obs.Trace,
	ent *Entry, d prefilter.Decision, reason string) {
	s.metrics.queriesOK.Add(1)
	total := time.Since(start)
	s.log.Info("query",
		"trace_id", tr.ID,
		"graph", ent.Name,
		"outcome", "rejected",
		"rejected_by", string(d.Filter),
		"reason", reason,
		"embeddings", 0,
		"total_ms", durMs(total),
	)
	ft, exported := tr.Finish("http.match",
		obs.Str("graph", ent.Name),
		obs.Str("outcome", "rejected"),
		obs.Str("rejected_by", string(d.Filter)),
		obs.Str("reason", reason),
		obs.Int("embeddings", 0))
	if s.slowlog.Qualifies(total) {
		s.metrics.slowQueries.Add(1)
		s.slowlog.Add(obs.SlowRecord{
			TraceID:  tr.ID,
			Start:    start,
			Duration: total,
			Graph:    ent.Name,
			Outcome:  "rejected",
			Spans:    ft.Spans,
			Exported: exported,
			TraceURL: traceURL(tr.ID),
			Detail:   map[string]any{"rejected_by": string(d.Filter), "reason": reason},
		})
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	summary := map[string]any{
		"done":        true,
		"trace_id":    tr.ID,
		"graph":       ent.Name,
		"count":       0,
		"embeddings":  0,
		"rejected_by": string(d.Filter),
		"reason":      reason,
		"cancelled":   false,
		"timed_out":   false,
	}
	if ent.Sharded != nil {
		summary["sharded"] = true
		summary["shards"] = ent.Sharded.K()
	}
	line, _ := json.Marshal(summary)
	_, _ = w.Write(append(line, '\n'))
}

// cacheOutcome renders a plan-cache lookup result for summaries and logs.
func cacheOutcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// durMs rounds a duration to milliseconds with µs precision for JSON/log
// output.
func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// phaseDuration returns the recorded duration of the named span (0 when
// the phase never ran).
func phaseDuration(tr *obs.Trace, name string) time.Duration {
	for _, sp := range tr.Spans() {
		if sp.Name == name {
			return sp.Duration()
		}
	}
	return 0
}

// profileDoc renders a per-level execution profile as JSON-ready rows.
func profileDoc(p *exec.Profile) []map[string]any {
	if p == nil {
		return nil
	}
	rows := make([]map[string]any, 0, len(p.Levels))
	for i, lv := range p.Levels {
		rows = append(rows, map[string]any{
			"pos":              i,
			"vertex":           lv.Vertex,
			"steps":            lv.Steps,
			"candidate_builds": lv.CandidateBuilds,
			"candidate_reuses": lv.CandidateReuses,
			"nec_shares":       lv.NECShares,
			"candidate_total":  lv.CandidateTotal,
			"factorized":       lv.Factorized,
		})
	}
	return rows
}

// slowDetail composes the slow-query record payload: what ran (pattern and
// parameters), the plan's SCE summary, and where the time went per level.
func slowDetail(p *graph.Graph, params matchParams, pl *plan.Plan, res core.MatchResult, cacheHit bool) map[string]any {
	detail := map[string]any{
		"pattern": map[string]any{
			"vertices": p.NumVertices(),
			"edges":    p.NumEdges(),
		},
		"params": map[string]any{
			"variant": params.variant.String(),
			"mode":    params.mode.String(),
			"limit":   params.limit,
			"workers": params.workers,
		},
		"plan_cache":       cacheOutcome(cacheHit),
		"embeddings":       res.Embeddings,
		"steps":            res.Exec.Steps,
		"candidate_builds": res.Exec.CandidateBuilds,
		"candidate_reuses": res.Exec.CandidateReuses,
		"clusters_read":    res.ClustersRead,
	}
	if pl != nil {
		detail["plan"] = map[string]any{
			"order_length":      len(pl.Order),
			"sce_vertices":      pl.SCE.SCEVertices,
			"independent_pairs": pl.SCE.IndependentPairs,
			"total_pairs":       pl.SCE.TotalPairs,
		}
	}
	if prof := profileDoc(res.Profile); prof != nil {
		detail["profile"] = prof
	}
	return detail
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	type graphInfo struct {
		Name     string    `json:"name"`
		Vertices int       `json:"vertices"`
		Edges    int       `json:"edges"`
		Clusters int       `json:"clusters"`
		Directed bool      `json:"directed"`
		Epoch    uint64    `json:"epoch"`
		LastSeq  uint64    `json:"last_seq"`
		LoadedAt time.Time `json:"loaded_at"`
		Queries  uint64    `json:"queries"`
		// Sharded graphs: shard count, partition scheme, and the per-shard
		// epoch vector (there is no single epoch).
		Shards      int      `json:"shards,omitempty"`
		ShardScheme string   `json:"shard_scheme,omitempty"`
		Epochs      []uint64 `json:"epochs,omitempty"`
	}
	entries := s.reg.List()
	out := make([]graphInfo, 0, len(entries))
	for _, e := range entries {
		v, ed, cl := e.Counts()
		info := graphInfo{
			Name:     e.Name,
			Vertices: v,
			Edges:    ed,
			Clusters: cl,
			Directed: e.Directed,
			LoadedAt: e.LoadedAt,
			Queries:  e.Queries(),
		}
		if e.Sharded != nil {
			info.Shards = e.Sharded.K()
			info.ShardScheme = e.Sharded.Scheme().String()
			info.Epochs = e.Sharded.EpochVector()
		} else {
			st := e.Live.Stats()
			info.Epoch = st.Epoch
			info.LastSeq = st.LastSeq
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

// handleMetrics renders the whole observability surface as one JSON
// document: monotonic counters and point-in-time gauges at the top level
// (the schema prior dashboards scrape), with the latency histograms nested
// under "latency" (per-phase and per-endpoint quantiles in milliseconds)
// and per-graph live-ingest stats under "live". With ?format=prom or an
// Accept header preferring text/plain, the same surface renders in
// Prometheus text exposition format instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		s.writeProm(w)
		return
	}
	doc := s.metrics.counterDoc()
	pfChecks, pfRejects, pfFalse := s.metrics.prefilterDoc()
	doc["prefilter_checks"] = pfChecks
	doc["prefilter_rejects"] = pfRejects
	doc["prefilter_false_admits"] = pfFalse
	doc["plan_cache_size"] = s.plans.len()
	doc["plan_cache_hits"] = s.plans.hits.Load()
	doc["plan_cache_misses"] = s.plans.misses.Load()
	doc["in_flight"] = s.adm.inFlight()
	doc["queued"] = s.adm.queued()
	doc["match_slots"] = s.cfg.MatchSlots
	doc["queue_depth"] = s.cfg.QueueDepth
	doc["mutate_in_flight"] = s.mutAdm.inFlight()
	doc["mutate_queued"] = s.mutAdm.queued()
	doc["mutate_slots"] = s.cfg.MutateSlots
	doc["mutate_queue_depth"] = s.cfg.MutateQueueDepth
	doc["graphs"] = s.reg.Len()
	doc["live"] = s.liveDoc()
	if sd := s.shardDoc(); len(sd) > 0 {
		doc["shard"] = sd
	}
	doc["uptime_seconds"] = time.Since(s.started).Seconds()
	doc["slow_query_threshold_ms"] = durMs(s.slowlog.Threshold())
	doc["slowlog_len"] = s.slowlog.Len()
	if s.traceRing != nil {
		doc["trace_ring_len"] = s.traceRing.Len()
	}
	if ed := s.exportDoc(); ed != nil {
		doc["trace_export"] = ed
	}
	if rd := s.runtimeDoc(); rd != nil {
		doc["runtime"] = rd
	}
	latency := s.metrics.latencyDoc()
	if s.exporter != nil {
		latency["trace_export"] = s.exporter.Latency().Doc()
	}
	doc["latency"] = latency
	writeJSON(w, http.StatusOK, doc)
}

// handleSlowlog dumps the slow-query ring buffer, newest first. Each record
// carries the query's trace ID (matching its X-Trace-Id response header and
// log lines), phase spans, plan summary, and per-level execution profile.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ms": durMs(s.slowlog.Threshold()),
		"total":        s.slowlog.Total(),
		"records":      s.slowlog.Snapshot(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"graphs": s.reg.Len(),
	})
}

func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

func jsonError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
