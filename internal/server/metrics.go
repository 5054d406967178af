package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"csce/internal/obs"
	"csce/internal/prefilter"
)

// phase names index the per-phase latency histograms: the stages a query
// passes through on its way out of the daemon. Each has one meaning
// everywhere it is reported — the summary, the log line, the spans and the
// *_micros counters.
const (
	phaseAdmission = "admission" // waiting for a match slot
	phaseRead      = "read"      // CCSR cluster read (0 sharded: each shard reads inside its scatter)
	phasePlan      = "plan"      // plan-cache lookup + GCF/DAG/LDSF, or the twig decomposition
	phaseExec      = "exec"      // the search, minus read, plan and stream writes
	phaseStream    = "stream"    // writing NDJSON embedding lines to the client
	phaseTotal     = "total"     // end-to-end handler time
)

// metricsPhases lists the histogram keys in render order.
var metricsPhases = []string{phaseAdmission, phaseRead, phasePlan, phaseExec, phaseStream, phaseTotal}

// metricsEndpoints lists the instrumented HTTP endpoints. Every route in
// Handler records its latency under one of these names.
var metricsEndpoints = []string{
	"match", "mutate", "subscribe", "graphs", "load", "metrics", "healthz",
	"slowlog", "slowlog_threshold", "trace",
}

// Shard stage names index the scatter-gather latency histograms: one full
// fan-out, one shard's local twig matching, and one cross-shard join.
const (
	shardStageScatter = "scatter"
	shardStageLocal   = "local"
	shardStageJoin    = "join"
)

// metricsShardStages lists the shard histogram keys in render order.
var metricsShardStages = []string{shardStageScatter, shardStageLocal, shardStageJoin}

// WAL operation names index the durable-log latency histograms.
const (
	walAppend     = "append"     // full disk append of one batch
	walFsync      = "fsync"      // each fsync, whatever the policy
	walReplay     = "replay"     // startup checkpoint load + log replay
	walCheckpoint = "checkpoint" // checkpoint write + segment truncation
	walResume     = "resume"     // subscriber resume replay
	walSignature  = "signature"  // prefilter signature maintenance inside the commit
	walResumeLog  = "resume_log" // resume-window maintenance (ring append + base roll-forward) inside the commit
)

// metricsWALOps lists the WAL histogram keys in render order.
var metricsWALOps = []string{walAppend, walFsync, walReplay, walCheckpoint, walResume, walSignature, walResumeLog}

// prefilterCounters tallies one admission pre-filter's activity. checks
// counts evaluations (a query bumps every filter in the cascade prefix it
// reached), rejects counts rejections the filter proved, and falseAdmits
// counts admitted queries that executed to zero embeddings — attributed to
// the deepest filter evaluated, the one that had the last cheap chance to
// prove emptiness.
type prefilterCounters struct {
	checks      atomic.Uint64
	rejects     atomic.Uint64
	falseAdmits atomic.Uint64
}

// metrics holds the daemon's monotonic counters and latency histograms.
// Everything is a plain atomic so the hot path never takes a lock;
// /metrics renders a snapshot as one JSON document, and gauges (in-flight,
// queue depth, cache size) are read from their owning components at render
// time.
type metrics struct {
	// Query outcomes. queriesTotal counts every POST that reached the match
	// handler; exactly one outcome counter moves per query.
	queriesTotal      atomic.Uint64
	queriesOK         atomic.Uint64
	queriesRejected   atomic.Uint64 // admission queue full (HTTP 429)
	queriesCancelled  atomic.Uint64 // client disconnect mid-search
	queriesTimedOut   atomic.Uint64 // per-query timeout fired
	queriesBadRequest atomic.Uint64 // unparseable pattern / params / 404s
	queriesErrored    atomic.Uint64 // internal errors
	slowQueries       atomic.Uint64 // queries captured by the slow-query log

	// Mutation outcomes; exactly one moves per POST that reached the
	// mutate handler (per-graph detail lives in the "live" metrics block).
	mutationsTotal       atomic.Uint64
	mutationsOK          atomic.Uint64 // committed batches
	mutationsRejected    atomic.Uint64 // mutation valve full (HTTP 429)
	mutationsFailed      atomic.Uint64 // invalid batches rolled back (HTTP 422)
	mutationsBadRequest  atomic.Uint64 // unparseable body / unknown graph
	subscriptionsOpened  atomic.Uint64 // subscribe streams accepted
	subscriptionsResumed atomic.Uint64 // subscribe streams that resumed via from_seq
	subscriptionsGone    atomic.Uint64 // resume refused with 410 (seq truncated)

	// Work volume.
	embeddingsEmitted atomic.Uint64 // NDJSON embedding lines streamed
	execSteps         atomic.Uint64 // candidate extensions across all queries
	candidateReuses   atomic.Uint64 // SCE cache hits across all queries
	execMicros        atomic.Uint64 // summed exec-phase time (µs)
	planMicros        atomic.Uint64 // summed plan-phase time (µs); cache hits contribute ~0

	// Scatter-gather volume (sharded graphs only). shardJoinCandidates is
	// the join-explosion signal: hash-bucket entries probed while joining
	// partial embeddings across shards.
	shardQueries        atomic.Uint64 // matches served through a coordinator
	shardPartials       atomic.Uint64 // twig rows returned by shards, summed
	shardJoinCandidates atomic.Uint64 // cross-shard join candidates probed

	// Admission pre-filter tallies, one set per cascade filter. Allocated
	// once by newMetrics, so recording never takes a lock or writes the map.
	prefilter map[prefilter.Filter]*prefilterCounters

	// Latency histograms: per query phase, per HTTP endpoint, per
	// durable-WAL operation, and per scatter-gather stage. Allocated once
	// by newMetrics; recording is lock-free (obs.Histogram).
	phases    map[string]*obs.Histogram
	endpoints map[string]*obs.Histogram
	wal       map[string]*obs.Histogram
	shard     map[string]*obs.Histogram
}

func newMetrics() *metrics {
	m := &metrics{
		prefilter: make(map[prefilter.Filter]*prefilterCounters, len(prefilter.Filters())),
		phases:    make(map[string]*obs.Histogram, len(metricsPhases)),
		endpoints: make(map[string]*obs.Histogram, len(metricsEndpoints)),
		wal:       make(map[string]*obs.Histogram, len(metricsWALOps)),
		shard:     make(map[string]*obs.Histogram, len(metricsShardStages)),
	}
	for _, f := range prefilter.Filters() {
		m.prefilter[f] = &prefilterCounters{}
	}
	for _, p := range metricsPhases {
		m.phases[p] = &obs.Histogram{}
	}
	for _, e := range metricsEndpoints {
		m.endpoints[e] = &obs.Histogram{}
	}
	for _, op := range metricsWALOps {
		m.wal[op] = &obs.Histogram{}
	}
	for _, st := range metricsShardStages {
		m.shard[st] = &obs.Histogram{}
	}
	return m
}

// recordPhase adds one observation to a phase histogram.
func (m *metrics) recordPhase(phase string, d time.Duration) {
	if h := m.phases[phase]; h != nil {
		h.Record(d)
	}
}

// recordEndpoint adds one observation to an endpoint histogram.
func (m *metrics) recordEndpoint(name string, d time.Duration) {
	if h := m.endpoints[name]; h != nil {
		h.Record(d)
	}
}

// recordWAL adds one observation to a durable-WAL operation histogram.
func (m *metrics) recordWAL(op string, d time.Duration) {
	if h := m.wal[op]; h != nil {
		h.Record(d)
	}
}

// recordShard adds one observation to a scatter-gather stage histogram.
func (m *metrics) recordShard(stage string, d time.Duration) {
	if h := m.shard[stage]; h != nil {
		h.Record(d)
	}
}

// recordPrefilterCheck tallies one admission-cascade evaluation: every
// filter in the prefix the cascade actually evaluated counts one check,
// and a rejection counts against the filter that proved it.
func (m *metrics) recordPrefilterCheck(d prefilter.Decision) {
	for i, f := range prefilter.Filters() {
		if i >= int(d.Checked) {
			break
		}
		m.prefilter[f].checks.Add(1)
	}
	if !d.Admit {
		if c := m.prefilter[d.Filter]; c != nil {
			c.rejects.Add(1)
		}
	}
}

// recordPrefilterFalseAdmit tallies an admitted query whose execution
// produced zero embeddings, against the deepest filter the cascade
// evaluated. The rate of these against rejects is the cascade's recall.
func (m *metrics) recordPrefilterFalseAdmit(d prefilter.Decision) {
	fs := prefilter.Filters()
	if !d.Admit || d.Checked == 0 || int(d.Checked) > len(fs) {
		return
	}
	m.prefilter[fs[d.Checked-1]].falseAdmits.Add(1)
}

// latencyDoc returns the histogram block: count/mean/p50/p90/p99/max per
// phase, per endpoint, and per durable-WAL operation, all in milliseconds.
func (m *metrics) latencyDoc() map[string]any {
	phases := make(map[string]any, len(m.phases))
	for name, h := range m.phases {
		phases[name] = h.Snapshot().Doc()
	}
	endpoints := make(map[string]any, len(m.endpoints))
	for name, h := range m.endpoints {
		endpoints[name] = h.Snapshot().Doc()
	}
	wal := make(map[string]any, len(m.wal))
	for name, h := range m.wal {
		wal[name] = h.Snapshot().Doc()
	}
	shard := make(map[string]any, len(m.shard))
	for name, h := range m.shard {
		shard[name] = h.Snapshot().Doc()
	}
	return map[string]any{
		"phases":    phases,
		"endpoints": endpoints,
		"wal":       wal,
		"shard":     shard,
	}
}

// series is one scalar of the /metrics surface. Each is declared once, in
// seriesTable, and both the JSON document and the Prometheus exposition
// are rendered from that table.
type series struct {
	// key places the value in the JSON document; a dotted key puts it in a
	// nested block ("runtime.goroutines").
	key string
	// prom is the Prometheus sample name after "csce_", labels included
	// (`prefilter_checks{filter="wl1"}`); empty for a JSON-only field.
	prom string
	kind string // Prometheus TYPE: "counter" or "gauge"
	// read returns the current value: a number, or a time.Duration, which
	// JSON renders in milliseconds and Prometheus in seconds. A JSON-only
	// field may hold anything encoding/json renders.
	read func() any
}

// seriesTable declares every /metrics scalar of s. A block whose component
// is not configured (trace ring, exporter, runtime collector) is left out
// of both renderings rather than zeroed, so dashboards can tell "off" from
// "idle".
func (s *Server) seriesTable() []series {
	m := s.metrics
	counter := func(name string, v *atomic.Uint64) series {
		return series{name, name, "counter", func() any { return v.Load() }}
	}
	gauge := func(name string, read func() any) series {
		return series{name, name, "gauge", read}
	}
	t := []series{
		counter("queries_total", &m.queriesTotal),
		counter("queries_ok", &m.queriesOK),
		counter("queries_rejected", &m.queriesRejected),
		counter("queries_cancelled", &m.queriesCancelled),
		counter("queries_timed_out", &m.queriesTimedOut),
		counter("queries_bad_request", &m.queriesBadRequest),
		counter("queries_errored", &m.queriesErrored),
		counter("slow_queries", &m.slowQueries),
		counter("mutations_total", &m.mutationsTotal),
		counter("mutations_ok", &m.mutationsOK),
		counter("mutations_rejected", &m.mutationsRejected),
		counter("mutations_failed", &m.mutationsFailed),
		counter("mutations_bad", &m.mutationsBadRequest),
		counter("subscriptions", &m.subscriptionsOpened),
		counter("subscriptions_resumed", &m.subscriptionsResumed),
		counter("subscriptions_gone", &m.subscriptionsGone),
		counter("embeddings_emitted", &m.embeddingsEmitted),
		counter("exec_steps", &m.execSteps),
		counter("candidate_reuses", &m.candidateReuses),
		counter("exec_micros", &m.execMicros),
		counter("plan_micros", &m.planMicros),
		counter("shard_queries", &m.shardQueries),
		counter("shard_partials", &m.shardPartials),
		counter("shard_join_candidates", &m.shardJoinCandidates),
		{"plan_cache_hits", "plan_cache_hits", "counter", func() any { return s.plans.Hits() }},
		{"plan_cache_misses", "plan_cache_misses", "counter", func() any { return s.plans.Misses() }},
		gauge("plan_cache_size", func() any { return s.plans.Len() }),
		gauge("in_flight", func() any { return s.adm.inFlight() }),
		gauge("queued", func() any { return s.adm.queued() }),
		gauge("match_slots", func() any { return s.cfg.MatchSlots }),
		gauge("queue_depth", func() any { return s.cfg.QueueDepth }),
		gauge("mutate_in_flight", func() any { return s.mutAdm.inFlight() }),
		gauge("mutate_queued", func() any { return s.mutAdm.queued() }),
		gauge("mutate_slots", func() any { return mutateSlots }),
		gauge("mutate_queue_depth", func() any { return mutateQueueDepth }),
		gauge("graphs", func() any { return s.reg.Len() }),
		gauge("slowlog_len", func() any { return s.slowlog.Len() }),
		{"slow_query_threshold_ms", "slow_query_threshold_seconds", "gauge", func() any { return s.slowlog.Threshold() }},
		gauge("uptime_seconds", func() any { return time.Since(s.started).Seconds() }),
	}
	// Admission pre-filter counters, one sample per cascade filter.
	for _, fam := range []struct {
		name string
		get  func(c *prefilterCounters) *atomic.Uint64
	}{
		{"prefilter_checks", func(c *prefilterCounters) *atomic.Uint64 { return &c.checks }},
		{"prefilter_rejects", func(c *prefilterCounters) *atomic.Uint64 { return &c.rejects }},
		{"prefilter_false_admits", func(c *prefilterCounters) *atomic.Uint64 { return &c.falseAdmits }},
	} {
		for _, f := range prefilter.Filters() {
			c := counter(fam.name, fam.get(m.prefilter[f]))
			c.key = fam.name + "." + string(f)
			c.prom = fmt.Sprintf("%s{filter=%q}", fam.name, f)
			t = append(t, c)
		}
	}
	t = append(t, gauge("trace_ring_len", func() any { return s.traceRing.Len() }))
	// Trace-export self-telemetry: the span pipeline is as observable as
	// the queries it describes.
	if exp := s.exporter; exp != nil {
		t = append(t,
			series{"trace_export.endpoint", "", "", func() any { return exp.Endpoint() }},
			series{"trace_export.queue_cap", "trace_export_queue_cap", "gauge", func() any { return exp.QueueCap() }},
			series{"trace_export.queued", "trace_export_queued", "counter", func() any { return exp.Stats().Queued }},
			series{"trace_export.sent", "trace_export_sent", "counter", func() any { return exp.Stats().Sent }},
			series{"trace_export.dropped", "trace_export_dropped", "counter", func() any { return exp.Stats().Dropped }},
			series{"trace_export.retries", "trace_export_retries", "counter", func() any { return exp.Stats().Retries }},
		)
	}
	// Runtime gauges from the runtime/metrics collector, which samples once
	// at construction, so Latest always has a sample here.
	rt := func(get func(st obs.RuntimeStats) any) func() any {
		return func() any { st, _ := s.runtime.Latest(); return get(st) }
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	return append(t,
		series{"runtime.goroutines", "goroutines", "gauge", rt(func(st obs.RuntimeStats) any { return st.Goroutines })},
		series{"runtime.heap_bytes", "heap_bytes", "gauge", rt(func(st obs.RuntimeStats) any { return st.HeapBytes })},
		series{"runtime.gc_cycles", "gc_cycles", "counter", rt(func(st obs.RuntimeStats) any { return st.GCCycles })},
		series{"runtime.gc_pause_p50_ms", "gc_pause_p50_seconds", "gauge", rt(func(st obs.RuntimeStats) any { return ms(st.GCPauseP50) })},
		series{"runtime.gc_pause_max_ms", "gc_pause_max_seconds", "gauge", rt(func(st obs.RuntimeStats) any { return ms(st.GCPauseMax) })},
		series{"runtime.sampled_at", "", "", rt(func(st obs.RuntimeStats) any { return st.SampledAt })},
	)
}
