package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/obs"
)

// mutationDoc is the wire form of one mutation. Labels travel by name and
// are interned through the graph's shared label table, exactly like
// pattern labels; a graph registered without a table only accepts the
// empty (unlabeled) name.
type mutationDoc struct {
	Op    string         `json:"op"` // add_vertex | insert_edge | delete_edge
	Src   graph.VertexID `json:"src"`
	Dst   graph.VertexID `json:"dst"`
	Label string         `json:"label"`
}

type mutateRequest struct {
	Mutations []mutationDoc `json:"mutations"`
}

// resolveMutations converts wire mutations to typed ones. Interning label
// names mutates the shared table, so the caller must hold s.names.
func resolveMutations(docs []mutationDoc, names *graph.LabelTable) ([]live.Mutation, error) {
	out := make([]live.Mutation, 0, len(docs))
	for i, d := range docs {
		var m live.Mutation
		switch d.Op {
		case live.OpAddVertex.String():
			m.Op = live.OpAddVertex
			if d.Label != "" && names == nil {
				return nil, fmt.Errorf("mutation %d: graph has no label table; only unlabeled mutations are accepted", i)
			}
			if names != nil {
				m.VertexLabel = names.Vertex(d.Label)
				// The durable WAL persists the name, not just the interned
				// id: ids are assigned in arrival order and would drift on
				// a restart that replays in a different order than labels
				// were first seen.
				m.LabelName = d.Label
				m.LabelNamed = true
			}
		case live.OpInsertEdge.String(), live.OpDeleteEdge.String():
			m.Op = live.OpInsertEdge
			if d.Op == live.OpDeleteEdge.String() {
				m.Op = live.OpDeleteEdge
			}
			m.Src, m.Dst = d.Src, d.Dst
			if d.Label != "" && names == nil {
				return nil, fmt.Errorf("mutation %d: graph has no label table; only unlabeled mutations are accepted", i)
			}
			if names != nil {
				m.EdgeLabel = names.Edge(d.Label)
				m.LabelName = d.Label
				m.LabelNamed = true
			}
		default:
			return nil, fmt.Errorf("mutation %d: unknown op %q (add_vertex, insert_edge, delete_edge)", i, d.Op)
		}
		out = append(out, m)
	}
	return out, nil
}

// handleMutate applies one batch of mutations atomically and reports the
// assigned WAL sequence range and the epoch that made it visible.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr := s.newTrace()
	w.Header().Set("X-Trace-Id", string(tr.ID))
	rctx := obs.WithTrace(r.Context(), tr)

	s.metrics.mutationsTotal.Add(1)
	name := r.PathValue("name")
	ent, ok := s.reg.Get(name)
	if !ok {
		s.metrics.mutationsBadRequest.Add(1)
		jsonError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return
	}
	var req mutateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPatternBytes))
	if err := dec.Decode(&req); err != nil {
		s.metrics.mutationsBadRequest.Add(1)
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("parse body: %v", err))
		return
	}
	if n := len(req.Mutations); n == 0 || n > s.cfg.MaxMutationsPerBatch {
		s.metrics.mutationsBadRequest.Add(1)
		jsonError(w, http.StatusBadRequest,
			fmt.Sprintf("batch must hold 1..%d mutations, got %d", s.cfg.MaxMutationsPerBatch, n))
		return
	}
	s.names.Lock()
	muts, err := resolveMutations(req.Mutations, ent.Names)
	s.names.Unlock()
	if err != nil {
		s.metrics.mutationsBadRequest.Add(1)
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Mutations queue on their own valve: saturating it returns 429 here
	// without ever consuming a match slot.
	if admErr := s.mutAdm.admit(rctx); admErr != nil {
		if errors.Is(admErr, ErrQueueFull) {
			s.metrics.mutationsRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "mutation queue full, retry later")
			return
		}
		jsonError(w, http.StatusServiceUnavailable, "cancelled while queued")
		return
	}
	defer s.mutAdm.release()

	rec, err := s.backend(ent).mutate(rctx, muts)
	if err != nil {
		if errors.Is(err, live.ErrClosed) {
			jsonError(w, http.StatusServiceUnavailable, "graph is closed")
			return
		}
		s.metrics.mutationsFailed.Add(1)
		// The error doc carries trace_id too: a rejected batch's apply span
		// is often exactly what the operator wants to see.
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
	s.log.Info("mutation batch", append([]any{
		"trace_id", tr.ID,
		"graph", ent.Name,
		"mutations", len(muts),
		"total_ms", durMs(time.Since(start)),
	}, rec.log...)...)
	tr.Finish("http.mutate", append([]obs.Attr{
		obs.Str("graph", ent.Name),
		obs.Str("outcome", "ok"),
		obs.Int("mutations", int64(len(muts))),
	}, rec.trace...)...)
	rec.summary["applied"] = len(muts)
	rec.summary["trace_id"] = tr.ID
	writeJSON(w, http.StatusOK, rec.summary)
}

// handleSubscribe registers a continuous query and streams its delta
// embeddings as NDJSON until the client disconnects, the graph closes, or
// the subscriber falls too far behind and is dropped.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	tr := s.newTrace()
	w.Header().Set("X-Trace-Id", string(tr.ID))

	name := r.PathValue("name")
	ent, ok := s.reg.Get(name)
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return
	}
	if ent.Sharded != nil {
		// Continuous queries would need delta embeddings joined across
		// shards; sharded graphs serve /match only.
		jsonError(w, http.StatusUnprocessableEntity,
			"sharded graphs do not support subscriptions; poll /match instead")
		return
	}
	q := r.URL.Query()
	text := q.Get("pattern")
	if text == "" {
		jsonError(w, http.StatusBadRequest, "missing pattern query parameter (URL-encoded edge-list text)")
		return
	}
	var variant graph.Variant
	switch v := q.Get("variant"); v {
	case "", "edge":
		variant = graph.EdgeInduced
	case "homo":
		variant = graph.Homomorphic
	case "vertex":
		jsonError(w, http.StatusBadRequest, live.ErrVertexInduced.Error())
		return
	default:
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("unknown variant %q (edge, homo)", v))
		return
	}
	p, err := s.parsePatternFrom(ent, strings.NewReader(text))
	if err != nil {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("parse pattern: %v", err))
		return
	}

	// ?from_seq=N (N may be 0: "replay all retained history") switches to
	// the resume protocol: missed events replay from the retained WAL
	// before the stream hands over to live commits, gapless.
	var res *live.Resume
	var sub *live.Subscription
	if raw := q.Get("from_seq"); raw != "" {
		fromSeq, perr := strconv.ParseUint(raw, 10, 64)
		if perr != nil {
			jsonError(w, http.StatusBadRequest, fmt.Sprintf("bad from_seq %q", raw))
			return
		}
		res, err = ent.Live.ResumeSubscribe(p, variant, fromSeq)
		if err != nil {
			switch {
			case errors.Is(err, live.ErrSeqTruncated):
				// 410 Gone: the history needed for a gapless resume has
				// been truncated; the client must recount from a fresh
				// /match instead of trusting its running sum.
				s.metrics.subscriptionsGone.Add(1)
				writeJSON(w, http.StatusGone, map[string]any{
					"error":      err.Error(),
					"trace_id":   tr.ID,
					"oldest_seq": ent.Live.OldestResumableSeq(),
					"last_seq":   ent.Live.Stats().LastSeq,
				})
			case errors.Is(err, live.ErrSeqFuture):
				jsonError(w, http.StatusBadRequest, err.Error())
			case errors.Is(err, live.ErrClosed):
				jsonError(w, http.StatusServiceUnavailable, "graph is closed")
			default:
				jsonError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		sub = res.Live()
		s.metrics.subscriptionsResumed.Add(1)
	} else {
		sub, err = ent.Live.Subscribe(p, variant)
		if err != nil {
			switch {
			case errors.Is(err, live.ErrClosed):
				jsonError(w, http.StatusServiceUnavailable, "graph is closed")
			default:
				jsonError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
	}
	defer sub.Close()
	s.metrics.subscriptionsOpened.Add(1)
	s.log.Info("subscription opened", "trace_id", tr.ID, "graph", ent.Name,
		"epoch", sub.JoinEpoch(), "resume", res != nil)

	// The subscription trace finishes when the stream ends (however it
	// ends), covering the whole lifetime with the delivery counts.
	var eventsSent, replayed int64
	defer func() {
		dropped := "false"
		if sub.Dropped() {
			dropped = "true"
		}
		tr.Finish("http.subscribe",
			obs.Str("graph", ent.Name),
			obs.Int("join_epoch", int64(sub.JoinEpoch())),
			obs.Int("events", eventsSent),
			obs.Int("replayed", replayed),
			obs.Str("dropped", dropped))
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	writeLine := func(doc map[string]any) bool {
		line, _ := json.Marshal(doc)
		if _, err := w.Write(append(line, '\n')); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	hello := map[string]any{
		"subscribed": true,
		"trace_id":   tr.ID,
		"graph":      ent.Name,
		"epoch":      sub.JoinEpoch(),
		"variant":    variant.String(),
	}
	if res != nil {
		hello["resume_from"] = q.Get("from_seq")
	}
	if !writeLine(hello) {
		return
	}

	if res != nil {
		// Replayed events carry "replay":true; after the caught_up line
		// every event is live. Seqs are gapless across the hand-off.
		errClientGone := errors.New("client gone")
		rerr := res.Replay(r.Context(), func(ev live.Event) error {
			doc := s.eventDoc(ent, ev)
			doc["replay"] = true
			if !writeLine(doc) {
				return errClientGone
			}
			replayed++
			return nil
		})
		if rerr != nil {
			s.log.Warn("resume replay ended early", "trace_id", tr.ID, "graph", ent.Name, "error", rerr)
			return
		}
		if !writeLine(map[string]any{"caught_up": true}) {
			return
		}
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				// Channel closed by Close/CloseAll or a slow-consumer drop;
				// tell the client which before ending the stream. The
				// trace_id matches the hello line and X-Trace-Id header, so
				// both ends of the stream correlate to the same trace.
				_ = writeLine(map[string]any{"done": true, "trace_id": tr.ID, "dropped": sub.Dropped()})
				return
			}
			if !writeLine(s.eventDoc(ent, ev)) {
				return
			}
			eventsSent++
		}
	}
}

// eventDoc renders one subscription event. The edge label name is looked
// up under the interning lock: the table is append-only, but concurrent
// pattern parses may be appending.
func (s *Server) eventDoc(ent *Entry, ev live.Event) map[string]any {
	switch ev.Kind {
	case live.EventCommit:
		return map[string]any{
			"kind":        "commit",
			"seq":         ev.Seq,
			"epoch":       ev.Epoch,
			"deltas":      ev.Deltas,
			"retractions": ev.Retractions,
		}
	default:
		kind := "delta"
		if ev.Kind == live.EventRetract {
			kind = "retract"
		}
		label := ""
		if ent.Names != nil {
			s.names.Lock()
			label = ent.Names.EdgeName(ev.EdgeLabel)
			s.names.Unlock()
		}
		return map[string]any{
			"kind":      kind,
			"seq":       ev.Seq,
			"epoch":     ev.Epoch,
			"src":       ev.Src,
			"dst":       ev.Dst,
			"label":     label,
			"embedding": ev.Embedding,
		}
	}
}

// handleSlowlogThreshold retunes the slow-query capture threshold at
// runtime: {"threshold_ms": 250}. 0 disables capture; the ring buffer and
// its history are kept.
func (s *Server) handleSlowlogThreshold(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ThresholdMs *float64 `json:"threshold_ms"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096))
	if err := dec.Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("parse body: %v", err))
		return
	}
	if req.ThresholdMs == nil || *req.ThresholdMs < 0 {
		jsonError(w, http.StatusBadRequest, "threshold_ms must be a number >= 0")
		return
	}
	d := time.Duration(*req.ThresholdMs * float64(time.Millisecond))
	s.slowlog.SetThreshold(d)
	s.log.Info("slowlog threshold updated", "threshold_ms", durMs(d))
	writeJSON(w, http.StatusOK, map[string]any{"threshold_ms": durMs(s.slowlog.Threshold())})
}

// liveDoc snapshots every single-store graph's live-ingest counters for
// /metrics. Sharded graphs report per shard under the "shard" block.
func (s *Server) liveDoc() map[string]live.Stats {
	entries := s.reg.List()
	out := make(map[string]live.Stats, len(entries))
	for _, e := range entries {
		if e.Live == nil {
			continue
		}
		out[e.Name] = e.Live.Stats()
	}
	return out
}
