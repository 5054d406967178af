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
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/lru"
	"csce/internal/obs"
	"csce/internal/obs/export"
	"csce/internal/plan"
	"csce/internal/shard"
)

// Sizes the daemon does not expose as settings: no workload, test or
// operator needed another value (OPERATIONS.md names the flags they
// replaced).
const (
	// maxPatternBytes bounds a /match, /mutate or /v1/graphs request body.
	maxPatternBytes = 1 << 20
	// mutateSlots bounds concurrently applying mutation batches. Commits
	// serialize on the writer lock anyway, so more slots would only buy
	// queueing inside the lock; the valve exists so a mutation storm
	// degrades into 429s instead of starving reads.
	mutateSlots = 1
	// mutateQueueDepth bounds mutations waiting for the slot; beyond it
	// requests get 429.
	mutateQueueDepth = 4 * mutateSlots
	// slowLogSize bounds the /debug/slowlog ring.
	slowLogSize = 128
	// traceRingSize bounds the completed-trace ring behind
	// /debug/trace/{id}.
	traceRingSize = 256
	// runtimeStatsInterval is the runtime/metrics polling period behind the
	// goroutine/heap/GC gauges.
	runtimeStatsInterval = 10 * time.Second
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
	// PlanCacheSize bounds the LRU of optimized plans (default 256;
	// negative disables caching).
	PlanCacheSize int
	// MaxMutationsPerBatch caps the mutations accepted in one request
	// (default 4096).
	MaxMutationsPerBatch int
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
	// Logger receives one structured line per match query, stamped with
	// the query's trace ID (default: discard).
	Logger *slog.Logger
	// TraceExporter, when set, receives every finished query trace for
	// asynchronous export as OTLP/JSON (see internal/obs/export). The
	// server drains it on Shutdown after the HTTP listener has drained, so
	// no tail spans are lost; it does not create it — csced builds one
	// from -trace-endpoint.
	TraceExporter *export.Exporter
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
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.MaxMutationsPerBatch <= 0 {
		c.MaxMutationsPerBatch = 4096
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
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
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
	plans    *lru.Cache[*plan.Plan]
	metrics  *metrics
	series   []series // every /metrics scalar, for both renderings
	slowlog  *obs.SlowLog
	log      *slog.Logger
	started  time.Time
	draining atomic.Bool

	// Telemetry export surface: the completed-trace ring behind
	// /debug/trace/{id}, the (optional, csced-built) span exporter, the
	// runtime/metrics collector, and the composite sink new traces get.
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
		cfg:       cfg,
		reg:       NewRegistry(),
		adm:       newAdmission(cfg.MatchSlots, cfg.QueueDepth),
		mutAdm:    newAdmission(mutateSlots, mutateQueueDepth),
		plans:     lru.New[*plan.Plan](cfg.PlanCacheSize),
		metrics:   newMetrics(),
		slowlog:   obs.NewSlowLog(slowLogSize, cfg.SlowQueryThreshold),
		log:       cfg.Logger,
		started:   time.Now(),
		traceRing: obs.NewTraceRing(traceRingSize),
		exporter:  cfg.TraceExporter,
		runtime:   obs.NewRuntimeCollector(runtimeStatsInterval),
	}
	s.sink = traceSink{ring: s.traceRing, exp: s.exporter}
	s.series = s.seriesTable()
	s.reg.LiveOpts = live.Options{
		WALRetention: cfg.WALRetention,
		// Dir stays empty here; Registry.Add derives each graph's own
		// subdirectory from WALRoot.
		Durability: live.Durability{
			Fsync:        cfg.WALFsync,
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
	profile bool // ?profile=1: return the per-level profile in the summary
}

func (s *Server) parseMatchParams(r *http.Request) (matchParams, error) {
	q := r.URL.Query()
	p := matchParams{
		variant: graph.EdgeInduced,
		mode:    plan.ModeCSCE,
		limit:   s.cfg.MaxLimit,
		timeout: s.cfg.DefaultTimeout,
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
// interning labels through the graph's table. The body is read before the
// lock is taken, so one client's slow upload never holds up another's
// parse.
func (s *Server) parsePattern(r *http.Request, w http.ResponseWriter, ent *Entry) (*graph.Graph, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPatternBytes))
	if err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return s.parsePatternFrom(ent, bytes.NewReader(body))
}

// parsePatternFrom parses a pattern from an in-memory reader. Interning
// mutates the graph's shared label table, so parses are serialized;
// matching itself never touches it.
func (s *Server) parsePatternFrom(ent *Entry, r io.Reader) (*graph.Graph, error) {
	s.names.Lock()
	defer s.names.Unlock()
	names := ent.Names
	if names == nil {
		names = graph.NewLabelTable()
	}
	return graph.ParseWith(r, names)
}

// durMs rounds a duration to milliseconds with µs precision for JSON/log
// output.
func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

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
// document: the scalars of seriesTable at the top level or in their blocks
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
	doc := map[string]any{}
	for _, sr := range s.series {
		v := sr.read()
		if d, ok := v.(time.Duration); ok {
			v = durMs(d)
		}
		if block, field, nested := strings.Cut(sr.key, "."); nested {
			sub, _ := doc[block].(map[string]any)
			if sub == nil {
				sub = map[string]any{}
				doc[block] = sub
			}
			sub[field] = v
		} else {
			doc[sr.key] = v
		}
	}
	doc["live"] = s.liveDoc()
	if sd := s.shardDoc(); len(sd) > 0 {
		doc["shard"] = sd
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
