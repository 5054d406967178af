package server

import (
	"net/http"
	"sort"

	"csce/internal/obs"
	"csce/internal/obs/export"
)

// traceSink fans a finished trace out to the completed-trace ring (always,
// so /debug/trace/{id} works collector or not) and the span exporter. Its
// TraceFinished return — and therefore Trace.Finish's accepted flag — is
// the exporter's verdict: false when no exporter is configured or its
// queue dropped the trace, which is what the slowlog's "exported" field
// records.
type traceSink struct {
	ring *obs.TraceRing
	exp  *export.Exporter
}

// TraceFinished implements obs.SpanSink.
func (ts traceSink) TraceFinished(ft obs.FinishedTrace) bool {
	ts.ring.Add(ft)
	if ts.exp == nil {
		return false
	}
	return ts.exp.Enqueue(ft)
}

// newTrace builds a query trace wired to the server's sink. Every handler
// that finishes its trace goes through here so rings/exporter coverage is
// uniform across match, mutate, subscribe, and load.
func (s *Server) newTrace() *obs.Trace {
	tr := obs.NewTrace()
	tr.Sink = s.sink
	return tr
}

// traceURL is the /debug/trace link for a trace ID, used by slowlog
// records to close the slow-query → full-trace loop.
func traceURL(id obs.TraceID) string { return "/debug/trace/" + string(id) }

// handleDebugTrace serves one retained trace as a span tree:
// GET /debug/trace/{id}. 404s cover both "never existed" and "evicted
// from the ring" — the ring is fixed-size by design.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := obs.TraceID(r.PathValue("id"))
	ft, ok := s.traceRing.Get(id)
	if !ok {
		jsonError(w, http.StatusNotFound, "trace not found (expired from ring or never captured)")
		return
	}
	writeJSON(w, http.StatusOK, traceDoc(ft))
}

// traceDoc renders a finished trace for /debug/trace/{id}: the flat span
// list plus a nested "tree" view rooted at the request span, children
// ordered by start offset.
func traceDoc(ft obs.FinishedTrace) map[string]any {
	return map[string]any{
		"trace_id": ft.ID,
		"begin":    ft.Begin,
		"root":     ft.Root,
		"spans":    ft.Spans,
		"tree":     spanTree(ft),
	}
}

// spanTree nests the spans by parent link. Spans with an unknown parent
// (shouldn't happen) attach to the root so nothing is silently dropped.
func spanTree(ft obs.FinishedTrace) map[string]any {
	byID := make(map[obs.SpanID]obs.Span, len(ft.Spans))
	children := make(map[obs.SpanID][]obs.Span, len(ft.Spans))
	for _, sp := range ft.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range ft.Spans {
		if sp.ID == ft.Root {
			continue
		}
		parent := sp.Parent
		if _, ok := byID[parent]; !ok {
			parent = ft.Root
		}
		children[parent] = append(children[parent], sp)
	}
	var render func(sp obs.Span) map[string]any
	render = func(sp obs.Span) map[string]any {
		node := map[string]any{
			"name":        sp.Name,
			"span_id":     sp.ID,
			"start_ms":    durMs(sp.Start),
			"duration_ms": durMs(sp.Duration()),
		}
		if len(sp.Attrs) > 0 {
			attrs := make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value()
			}
			node["attrs"] = attrs
		}
		kids := children[sp.ID]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		if len(kids) > 0 {
			nodes := make([]map[string]any, 0, len(kids))
			for _, k := range kids {
				nodes = append(nodes, render(k))
			}
			node["children"] = nodes
		}
		return node
	}
	root, ok := byID[ft.Root]
	if !ok {
		return nil
	}
	return render(root)
}
