package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"csce/internal/live"
	"csce/internal/obs"
	"csce/internal/prefilter"
	"csce/internal/shard"
)

// wantsProm reports whether /metrics should answer in Prometheus text
// exposition format: either an explicit ?format=prom or an Accept header
// asking for text/plain (the JSON document stays the default for the
// dashboards that already scrape it).
func wantsProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// writeProm renders the whole observability surface — counters, gauges,
// per-graph live-ingest stats, and the phase/endpoint latency histograms —
// in Prometheus text exposition format v0.0.4 under the csce_ prefix.
func (s *Server) writeProm(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	// Monotonic counters, alphabetical for stable scrapes.
	counters := s.metrics.counterDoc()
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		promScalar(bw, "csce_"+k, "counter", counters[k])
	}
	promScalar(bw, "csce_plan_cache_hits", "counter", s.plans.hits.Load())
	promScalar(bw, "csce_plan_cache_misses", "counter", s.plans.misses.Load())

	// Admission pre-filter counters, one sample per cascade filter.
	prefilterFamilies := []struct {
		name string
		get  func(c *prefilterCounters) uint64
	}{
		{"csce_prefilter_checks", func(c *prefilterCounters) uint64 { return c.checks.Load() }},
		{"csce_prefilter_rejects", func(c *prefilterCounters) uint64 { return c.rejects.Load() }},
		{"csce_prefilter_false_admits", func(c *prefilterCounters) uint64 { return c.falseAdmits.Load() }},
	}
	for _, fam := range prefilterFamilies {
		fmt.Fprintf(bw, "# TYPE %s counter\n", fam.name)
		for _, f := range prefilter.Filters() {
			fmt.Fprintf(bw, "%s{filter=%q} %d\n", fam.name, string(f), fam.get(s.metrics.prefilter[f]))
		}
	}

	// Point-in-time gauges.
	promScalar(bw, "csce_in_flight", "gauge", s.adm.inFlight())
	promScalar(bw, "csce_queued", "gauge", s.adm.queued())
	promScalar(bw, "csce_match_slots", "gauge", s.cfg.MatchSlots)
	promScalar(bw, "csce_queue_depth", "gauge", s.cfg.QueueDepth)
	promScalar(bw, "csce_mutate_in_flight", "gauge", s.mutAdm.inFlight())
	promScalar(bw, "csce_mutate_queued", "gauge", s.mutAdm.queued())
	promScalar(bw, "csce_mutate_slots", "gauge", s.cfg.MutateSlots)
	promScalar(bw, "csce_mutate_queue_depth", "gauge", s.cfg.MutateQueueDepth)
	promScalar(bw, "csce_plan_cache_size", "gauge", s.plans.len())
	promScalar(bw, "csce_graphs", "gauge", s.reg.Len())
	promScalar(bw, "csce_slowlog_len", "gauge", s.slowlog.Len())
	promScalar(bw, "csce_slow_query_threshold_seconds", "gauge", s.slowlog.Threshold().Seconds())
	promScalar(bw, "csce_uptime_seconds", "gauge", time.Since(s.started).Seconds())

	// Per-graph live-ingest series. Stats are snapshotted once per graph,
	// then rendered one family at a time so each TYPE header appears once.
	// Sharded graphs render separately below with a shard label.
	entries := s.reg.List()
	liveEntries := make([]*Entry, 0, len(entries))
	liveStats := make(map[string]live.Stats, len(entries))
	for _, e := range entries {
		if e.Live == nil {
			continue
		}
		liveEntries = append(liveEntries, e)
		liveStats[e.Name] = e.Live.Stats()
	}
	liveFamilies := []struct {
		name string
		typ  string
		val  func(st live.Stats) float64
	}{
		{"csce_live_epoch", "gauge", func(st live.Stats) float64 { return float64(st.Epoch) }},
		{"csce_live_last_seq", "gauge", func(st live.Stats) float64 { return float64(st.LastSeq) }},
		{"csce_live_wal_retained", "gauge", func(st live.Stats) float64 { return float64(st.WALRetained) }},
		{"csce_live_wal_truncated", "counter", func(st live.Stats) float64 { return float64(st.WALTruncated) }},
		{"csce_live_batches", "counter", func(st live.Stats) float64 { return float64(st.Batches) }},
		{"csce_live_batches_failed", "counter", func(st live.Stats) float64 { return float64(st.BatchesFailed) }},
		{"csce_live_vertices_added", "counter", func(st live.Stats) float64 { return float64(st.VerticesAdded) }},
		{"csce_live_edges_inserted", "counter", func(st live.Stats) float64 { return float64(st.EdgesInserted) }},
		{"csce_live_edges_deleted", "counter", func(st live.Stats) float64 { return float64(st.EdgesDeleted) }},
		{"csce_live_snapshots_live", "gauge", func(st live.Stats) float64 { return float64(st.SnapshotsLive) }},
		{"csce_live_snapshots_drained", "counter", func(st live.Stats) float64 { return float64(st.SnapshotsDrained) }},
		{"csce_live_subscribers", "gauge", func(st live.Stats) float64 { return float64(st.Subscribers) }},
		{"csce_live_subscribers_opened", "counter", func(st live.Stats) float64 { return float64(st.SubscribersTotal) }},
		{"csce_live_subscribers_dropped", "counter", func(st live.Stats) float64 { return float64(st.SubscribersDropped) }},
		{"csce_live_deltas_delivered", "counter", func(st live.Stats) float64 { return float64(st.DeltasDelivered) }},
		{"csce_live_retractions_delivered", "counter", func(st live.Stats) float64 { return float64(st.RetractionsDelivered) }},
		{"csce_live_subscribers_resumed", "counter", func(st live.Stats) float64 { return float64(st.SubscribersResumed) }},
		{"csce_live_wal_disk_segments", "gauge", func(st live.Stats) float64 { return float64(st.WALDiskSegments) }},
		{"csce_live_wal_disk_bytes", "gauge", func(st live.Stats) float64 { return float64(st.WALDiskBytes) }},
		{"csce_live_wal_fsyncs", "counter", func(st live.Stats) float64 { return float64(st.WALFsyncs) }},
		{"csce_live_wal_checkpoints", "counter", func(st live.Stats) float64 { return float64(st.WALCheckpoints) }},
		{"csce_live_checkpoint_failures", "counter", func(st live.Stats) float64 { return float64(st.CheckpointFailures) }},
		{"csce_live_oldest_resumable_seq", "gauge", func(st live.Stats) float64 { return float64(st.OldestResumableSeq) }},
		{"csce_live_snapshot_bytes", "gauge", func(st live.Stats) float64 { return float64(st.SnapshotBytes) }},
		{"csce_live_oldest_pinned_epoch", "gauge", func(st live.Stats) float64 { return float64(st.OldestPinnedEpoch) }},
		{"csce_live_oldest_pinned_age_seconds", "gauge", func(st live.Stats) float64 { return st.OldestPinnedAge }},
	}
	for _, fam := range liveFamilies {
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, e := range liveEntries {
			fmt.Fprintf(bw, "%s{graph=%q} %s\n", fam.name, e.Name, promFloat(fam.val(liveStats[e.Name])))
		}
	}

	// Per-shard series for sharded graphs: one sample per (graph, shard).
	shardStats := make(map[string][]shard.Stats)
	shardNames := make([]string, 0)
	for _, e := range entries {
		if e.Sharded == nil {
			continue
		}
		shardStats[e.Name] = e.Sharded.ShardStats()
		shardNames = append(shardNames, e.Name)
	}
	if len(shardNames) > 0 {
		shardFamilies := []struct {
			name string
			typ  string
			val  func(st shard.Stats) float64
		}{
			{"csce_shard_epoch", "gauge", func(st shard.Stats) float64 { return float64(st.Epoch) }},
			{"csce_shard_vertices", "gauge", func(st shard.Stats) float64 { return float64(st.Vertices) }},
			{"csce_shard_local_vertices", "gauge", func(st shard.Stats) float64 { return float64(st.LocalVertices) }},
			{"csce_shard_edges", "gauge", func(st shard.Stats) float64 { return float64(st.Edges) }},
			{"csce_shard_boundary_edges", "gauge", func(st shard.Stats) float64 { return float64(st.BoundaryEdges) }},
			{"csce_shard_batches", "counter", func(st shard.Stats) float64 { return float64(st.Live.Batches) }},
			{"csce_shard_batches_failed", "counter", func(st shard.Stats) float64 { return float64(st.Live.BatchesFailed) }},
			{"csce_shard_wal_disk_bytes", "gauge", func(st shard.Stats) float64 { return float64(st.Live.WALDiskBytes) }},
		}
		for _, fam := range shardFamilies {
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.typ)
			for _, name := range shardNames {
				for _, st := range shardStats[name] {
					fmt.Fprintf(bw, "%s{graph=%q,shard=\"%d\"} %s\n",
						fam.name, name, st.ID, promFloat(fam.val(st)))
				}
			}
		}
	}

	// Trace-export self-telemetry: the span pipeline is as observable as
	// the queries it describes.
	if s.exporter != nil {
		st := s.exporter.Stats()
		promScalar(bw, "csce_trace_export_queued", "counter", st.Queued)
		promScalar(bw, "csce_trace_export_sent", "counter", st.Sent)
		promScalar(bw, "csce_trace_export_dropped", "counter", st.Dropped)
		promScalar(bw, "csce_trace_export_retries", "counter", st.Retries)
		promScalar(bw, "csce_trace_export_queue_cap", "gauge", s.exporter.QueueCap())
		promHistSnapshot(bw, "csce_trace_export_latency_seconds", "format",
			s.exporter.Format().String(), s.exporter.Latency())
	}
	if s.traceRing != nil {
		promScalar(bw, "csce_trace_ring_len", "gauge", s.traceRing.Len())
	}

	// Runtime-stats gauges from the runtime/metrics collector.
	if rt, ok := s.runtime.Latest(); ok {
		promScalar(bw, "csce_goroutines", "gauge", rt.Goroutines)
		promScalar(bw, "csce_heap_bytes", "gauge", rt.HeapBytes)
		promScalar(bw, "csce_gc_cycles", "counter", rt.GCCycles)
		promScalar(bw, "csce_gc_pause_p50_seconds", "gauge", rt.GCPauseP50/1e3)
		promScalar(bw, "csce_gc_pause_max_seconds", "gauge", rt.GCPauseMax/1e3)
	}

	// Latency histograms.
	promHistFamily(bw, "csce_phase_latency_seconds", "phase", metricsPhases, s.metrics.phases)
	promHistFamily(bw, "csce_endpoint_latency_seconds", "endpoint", metricsEndpoints, s.metrics.endpoints)
	promHistFamily(bw, "csce_wal_latency_seconds", "op", metricsWALOps, s.metrics.wal)
	promHistFamily(bw, "csce_shard_latency_seconds", "stage", metricsShardStages, s.metrics.shard)
}

// promScalar writes one unlabeled sample with its TYPE header.
func promScalar(w io.Writer, name, typ string, v any) {
	fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", name, typ, name, promValue(v))
}

// promValue renders a numeric value without float artifacts for integers.
func promValue(v any) string {
	switch x := v.(type) {
	case uint64:
		return strconv.FormatUint(x, 10)
	case int64:
		return strconv.FormatInt(x, 10)
	case int:
		return strconv.Itoa(x)
	case float64:
		return promFloat(x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

func promFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// promHistSnapshot writes one single-member histogram family from an
// already-taken snapshot (the exporter owns its histogram; only snapshots
// cross the package boundary).
func promHistSnapshot(w io.Writer, name, label, key string, snap obs.HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	uppers, cum := snap.PromBuckets()
	for i, le := range uppers {
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, key, promFloat(le), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, key, snap.Count)
	fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, label, key, promFloat(snap.SumSeconds()))
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, key, snap.Count)
}

// promHistFamily writes one histogram family with a label per member:
// cumulative _bucket series (le in seconds, closing with +Inf), _sum in
// seconds, and _count.
func promHistFamily(w io.Writer, name, label string, order []string, hists map[string]*obs.Histogram) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, key := range order {
		h := hists[key]
		if h == nil {
			continue
		}
		snap := h.Snapshot()
		uppers, cum := snap.PromBuckets()
		for i, le := range uppers {
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, key, promFloat(le), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, key, snap.Count)
		fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, label, key, promFloat(snap.SumSeconds()))
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, key, snap.Count)
	}
}
