package server

import (
	"sync/atomic"
	"time"

	"csce/internal/obs"
	"csce/internal/prefilter"
)

// phase names index the per-phase latency histograms: the four stages a
// query passes through on its way out of the daemon.
const (
	phaseAdmission = "admission" // waiting for a match slot
	phasePlan      = "plan"      // plan-cache lookup + GCF/DAG/LDSF on miss
	phaseExec      = "exec"      // backtracking search (minus streaming writes)
	phaseStream    = "stream"    // writing NDJSON embedding lines to the client
	phaseTotal     = "total"     // end-to-end handler time
)

// metricsPhases lists the histogram keys in render order.
var metricsPhases = []string{phaseAdmission, phasePlan, phaseExec, phaseStream, phaseTotal}

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
	execMicros        atomic.Uint64 // summed execution-stage wall time (µs)
	planMicros        atomic.Uint64 // summed plan-stage wall time (µs); cache hits contribute ~0

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

// prefilterDoc returns the per-filter admission counters, keyed for the
// JSON /metrics document: prefilter_checks, prefilter_rejects, and
// prefilter_false_admits each map filter name → count.
func (m *metrics) prefilterDoc() (checks, rejects, falseAdmits map[string]uint64) {
	n := len(m.prefilter)
	checks = make(map[string]uint64, n)
	rejects = make(map[string]uint64, n)
	falseAdmits = make(map[string]uint64, n)
	for f, c := range m.prefilter {
		checks[string(f)] = c.checks.Load()
		rejects[string(f)] = c.rejects.Load()
		falseAdmits[string(f)] = c.falseAdmits.Load()
	}
	return checks, rejects, falseAdmits
}

// counterDoc returns the counter block of the /metrics document.
func (m *metrics) counterDoc() map[string]any {
	return map[string]any{
		"queries_total":         m.queriesTotal.Load(),
		"queries_ok":            m.queriesOK.Load(),
		"queries_rejected":      m.queriesRejected.Load(),
		"queries_cancelled":     m.queriesCancelled.Load(),
		"queries_timed_out":     m.queriesTimedOut.Load(),
		"queries_bad_request":   m.queriesBadRequest.Load(),
		"queries_errored":       m.queriesErrored.Load(),
		"slow_queries":          m.slowQueries.Load(),
		"mutations_total":       m.mutationsTotal.Load(),
		"mutations_ok":          m.mutationsOK.Load(),
		"mutations_rejected":    m.mutationsRejected.Load(),
		"mutations_failed":      m.mutationsFailed.Load(),
		"mutations_bad":         m.mutationsBadRequest.Load(),
		"subscriptions":         m.subscriptionsOpened.Load(),
		"subscriptions_resumed": m.subscriptionsResumed.Load(),
		"subscriptions_gone":    m.subscriptionsGone.Load(),
		"embeddings_emitted":    m.embeddingsEmitted.Load(),
		"exec_steps":            m.execSteps.Load(),
		"candidate_reuses":      m.candidateReuses.Load(),
		"exec_micros":           m.execMicros.Load(),
		"plan_micros":           m.planMicros.Load(),
		"shard_queries":         m.shardQueries.Load(),
		"shard_partials":        m.shardPartials.Load(),
		"shard_join_candidates": m.shardJoinCandidates.Load(),
	}
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
