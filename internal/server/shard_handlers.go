package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/graph"
	"csce/internal/obs"
	"csce/internal/shard"
)

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
	g, err := graph.ParseWith(http.MaxBytesReader(w, r.Body, maxPatternBytes), names)
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
