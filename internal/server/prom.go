package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"csce/internal/live"
	"csce/internal/obs"
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

	// The scalars of seriesTable, one TYPE line per family.
	family := ""
	for _, sr := range s.series {
		if sr.prom == "" {
			continue
		}
		if fam, _, _ := strings.Cut(sr.prom, "{"); fam != family {
			family = fam
			fmt.Fprintf(bw, "# TYPE csce_%s %s\n", fam, sr.kind)
		}
		fmt.Fprintf(bw, "csce_%s %s\n", sr.prom, promValue(sr.read()))
	}

	// Per-graph series. Stats are snapshotted once per graph, then rendered
	// one family at a time so each TYPE header appears once; sharded graphs
	// carry a shard label instead of appearing in the live families.
	entries := s.reg.List()
	liveStats, coordStats := s.liveDoc(), s.shardDoc()
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
		for _, e := range entries {
			if st, ok := liveStats[e.Name]; ok {
				fmt.Fprintf(bw, "%s{graph=%q} %s\n", fam.name, e.Name, promFloat(fam.val(st)))
			}
		}
	}

	if len(coordStats) > 0 {
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
			for _, e := range entries {
				for _, st := range coordStats[e.Name].Shards {
					fmt.Fprintf(bw, "%s{graph=%q,shard=\"%d\"} %s\n",
						fam.name, e.Name, st.ID, promFloat(fam.val(st)))
				}
			}
		}
	}

	if s.exporter != nil {
		// The exporter owns its histogram; only a snapshot crosses over.
		fmt.Fprint(bw, "# TYPE csce_trace_export_latency_seconds histogram\n")
		promHist(bw, "csce_trace_export_latency_seconds", "", s.exporter.Latency())
	}

	// Latency histograms.
	promHistFamily(bw, "csce_phase_latency_seconds", "phase", metricsPhases, s.metrics.phases)
	promHistFamily(bw, "csce_endpoint_latency_seconds", "endpoint", metricsEndpoints, s.metrics.endpoints)
	promHistFamily(bw, "csce_wal_latency_seconds", "op", metricsWALOps, s.metrics.wal)
	promHistFamily(bw, "csce_shard_latency_seconds", "stage", metricsShardStages, s.metrics.shard)
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
	case time.Duration:
		return promFloat(x.Seconds())
	default:
		return fmt.Sprintf("%v", v)
	}
}

func promFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// promHistFamily writes one histogram family with a label per member.
func promHistFamily(w io.Writer, name, label string, order []string, hists map[string]*obs.Histogram) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, key := range order {
		promHist(w, name, fmt.Sprintf("%s=%q", label, key), hists[key].Snapshot())
	}
}

// promHist writes one histogram series set, labelled by labels (`k="v"`,
// or empty for none): cumulative _bucket series (le in seconds, closing
// with +Inf), _sum in seconds, and _count.
func promHist(w io.Writer, name, labels string, snap obs.HistogramSnapshot) {
	le, set := "", ""
	if labels != "" {
		le, set = labels+",", "{"+labels+"}"
	}
	uppers, cum := snap.PromBuckets()
	for i, up := range uppers {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, le, promFloat(up), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, snap.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, set, promFloat(snap.SumSeconds()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, snap.Count)
}
