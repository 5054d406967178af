package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"csce/internal/core"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/plan"
	"csce/internal/shard"
)

// ndjsonSink encodes embeddings the way handleMatch does and writes them
// to io.Discard: the replay pays the encoding, not the socket.
type ndjsonSink struct{ buf []byte }

func (s *ndjsonSink) emit(m []graph.VertexID) bool {
	s.buf = append(s.buf[:0], `{"embedding":[`...)
	for i, v := range m {
		if i > 0 {
			s.buf = append(s.buf, ',')
		}
		s.buf = strconv.AppendUint(s.buf, uint64(v), 10)
	}
	s.buf = append(s.buf, ']', '}', '\n')
	_, _ = io.Discard.Write(s.buf) // Discard never fails
	return true
}

// layerCounts are the counters the replay reads off the values the
// layers' public calls return.
type layerCounts struct {
	requests    int
	checks      int
	rejects     int
	falseAdmits int
	clusters    uint64
	viewBytes   uint64
	steps       uint64
	builds      uint64
	reuses      uint64
	embeddings  uint64
	sceRatio    float64 // summed plan SCE vertex ratio, one term per request

	partials       uint64
	joinCandidates uint64
	decompHits     int
	deltas         uint64
	retractions    uint64
}

type planKey struct {
	pat   int
	epoch uint64
}

// coreReplay re-runs /match requests in process through the same layer
// calls handleMatch makes, in the same order, with a span around each.
type coreReplay struct {
	rec   *recorder
	lg    *live.Graph
	plans map[planKey]*plan.Plan
	sink  ndjsonSink
	n     layerCounts
	// pipelineUs is read+plan+exec span time per request, the traced
	// counterpart of an untraced Engine.Match.
	pipelineUs []float64
}

func newCoreReplay(rec *recorder, lg *live.Graph) *coreReplay {
	return &coreReplay{rec: rec, lg: lg, plans: map[planKey]*plan.Plan{}}
}

// match replays one request for pool member idx and returns the
// embeddings it produced.
func (c *coreReplay) match(idx int, p pattern) (uint64, error) {
	rec := c.rec
	rec.nextRequest()
	root := rec.begin(rootSpan)
	defer rec.end(root)
	c.n.requests++

	s := rec.begin("graph.parse")
	pg, err := graph.ParseWith(bytes.NewReader(p.text), c.lg.Names())
	rec.end(s)
	if err != nil {
		return 0, err
	}

	s = rec.begin("prefilter.check")
	dec := c.lg.Prefilter().Check(pg, p.variant)
	rec.end(s)
	c.n.checks++
	if !dec.Admit {
		c.n.rejects++
		return 0, nil
	}

	s = rec.begin("live.acquire")
	snap := c.lg.Acquire()
	rec.end(s)
	defer snap.Release()
	store := snap.Store()

	var pipeline time.Duration
	key := planKey{idx, snap.Epoch()}
	pl, hit := c.plans[key]
	if !hit {
		s = rec.begin("plan.optimize")
		pl, err = plan.Optimize(pg, store, p.variant, plan.ModeCSCE)
		pipeline += rec.end(s)
		if err != nil {
			return 0, err
		}
		c.plans[key] = pl
	}
	c.n.sceRatio += pl.SCE.Ratio()

	s = rec.begin("ccsr.read")
	view, err := store.ReadCSR(pg, p.variant)
	pipeline += rec.end(s)
	if err != nil {
		return 0, err
	}
	c.n.clusters += uint64(view.NumClusters())
	c.n.viewBytes += uint64(view.DecompressedBytes())

	s = rec.begin("exec.run")
	st, err := exec.Run(view, pl, exec.Options{Limit: streamLimit, OnEmbedding: c.sink.emit, Profile: true})
	pipeline += rec.end(s)
	if err != nil {
		return 0, err
	}
	c.n.steps += st.Steps
	c.n.builds += st.CandidateBuilds
	c.n.reuses += st.CandidateReuses
	c.n.embeddings += st.Embeddings
	if st.Embeddings == 0 {
		c.n.falseAdmits++
	}
	c.pipelineUs = append(c.pipelineUs, us(pipeline))
	return st.Embeddings, nil
}

// untraced runs Engine.Match alone on the same request under one
// "core.match" span with nothing inside it: what the traced pipeline is
// compared against for trace.overhead_pct. cached says whether to hand
// Match the plan the traced run cached (a server-side cache hit) or let it
// optimize (a miss).
func (c *coreReplay) untraced(idx int, p pattern, cached bool) error {
	pg, err := graph.ParseWith(bytes.NewReader(p.text), c.lg.Names())
	if err != nil {
		return err
	}
	snap := c.lg.Acquire()
	defer snap.Release()
	var prepared *plan.Plan
	if cached {
		prepared = c.plans[planKey{idx, snap.Epoch()}]
	}
	c.rec.nextRequest()
	s := c.rec.begin("core.match")
	_, err = snap.Engine().Match(pg, core.MatchOptions{
		Variant: p.variant, Limit: streamLimit, PreparedPlan: prepared, OnEmbedding: c.sink.emit, Profile: true,
	})
	c.rec.end(s)
	return err
}

// fillCore writes the metrics every single-store replay produces. Counts
// are divided by `passes` so they do not depend on how many whole passes
// fitted into the time budget.
func fillCore(m map[string]float64, ls layerStats, n layerCounts, passes int, pipelineUs []float64) {
	per := func(v float64) float64 { return ratio(v, float64(passes)) }
	fillFront(m, ls, n, passes)
	m["ccsr.read_us_p50"] = ls.p50("ccsr.read")
	m["ccsr.clusters_read"] = per(float64(n.clusters))
	m["ccsr.view_bytes"] = per(float64(n.viewBytes))
	m["ccsr.read_share"] = ratio(ls.total["ccsr.read"], ls.total["ccsr.read"]+ls.total["plan.optimize"]+ls.total["exec.run"])
	m["plan.optimize_us_p50"] = ls.p50("plan.optimize")
	m["plan.sce_vertex_ratio"] = ratio(n.sceRatio, float64(n.requests))
	m["exec.run_us_p50"] = ls.p50("exec.run")
	m["exec.steps"] = per(float64(n.steps))
	m["exec.candidate_builds"] = per(float64(n.builds))
	m["exec.candidate_reuses"] = per(float64(n.reuses))
	m["exec.reuse_ratio"] = ratio(float64(n.reuses), float64(n.reuses+n.builds))
	m["exec.embeddings"] = per(float64(n.embeddings))
	m["exec.steps_per_embedding"] = ratio(float64(n.steps), float64(n.embeddings))
	m["trace.coverage"] = ls.coverage()
	core := ls.p50("core.match")
	m["core.match_us_p50"] = core
	m["trace.overhead_pct"] = 100 * ratio(medianOf(pipelineUs)-core, core)
}

// fillFront writes the metrics of the layers every /match passes before it
// reaches a store or a coordinator: pattern parse and admission prefilter.
func fillFront(m map[string]float64, ls layerStats, n layerCounts, passes int) {
	per := func(v float64) float64 { return ratio(v, float64(passes)) }
	m["graph.parse_us_p50"] = ls.p50("graph.parse")
	m["prefilter.check_us_p50"] = ls.p50("prefilter.check")
	m["prefilter.checks"] = per(float64(n.checks))
	m["prefilter.rejects"] = per(float64(n.rejects))
	m["prefilter.false_admits"] = per(float64(n.falseAdmits))
}

// replayOrder is the fixed order a replay visits the pool in: one seeded
// permutation, repeated every pass.
func replayOrder(seed int64, n int) []int {
	s := newRequestStream(seed, 0, n)
	order := make([]int, n)
	for i := range order {
		order[i] = s.next()
	}
	return order
}

// replayPasses runs do(idx) over whole passes of order until budget is
// spent (at least one pass) and returns the number of passes.
func replayPasses(ctx context.Context, order []int, budget time.Duration, do func(idx int) error) (int, error) {
	start := time.Now()
	passes := 0
	for passes == 0 || (time.Since(start) < budget && ctx.Err() == nil) {
		for _, idx := range order {
			if err := do(idx); err != nil {
				return passes, err
			}
		}
		passes++
	}
	return passes, nil
}

// shardReplay re-runs /match requests through a K-shard coordinator.
type shardReplay struct {
	rec     *recorder
	coord   *shard.Coordinator
	timeout time.Duration // per-match cut-off
	sink    ndjsonSink
	n       layerCounts
}

// errShardTimeout reports a sharded match cut off by shardReplay.timeout.
var errShardTimeout = errors.New("sharded match cut off")

// shardObserver wires the coordinator's latency hooks into the recorder:
// per-shard local matches nest under the scatter that fanned them out.
func shardObserver(rec *recorder) shard.Observer {
	return shard.Observer{
		Local: rec.hook("shard.local"),
		Scatter: func(d time.Duration) {
			rec.adopt(rec.observed("shard.scatter", d), "shard.local")
		},
		Join: rec.hook("shard.join"),
	}
}

func (c *shardReplay) match(p pattern) (shard.MatchResult, error) {
	rec := c.rec
	rec.nextRequest()
	root := rec.begin(rootSpan)
	defer rec.end(root)
	c.n.requests++

	s := rec.begin("graph.parse")
	pg, err := graph.ParseWith(bytes.NewReader(p.text), c.coord.Names())
	rec.end(s)
	if err != nil {
		return shard.MatchResult{}, err
	}

	s = rec.begin("prefilter.check")
	dec := c.coord.PrefilterCheck(pg, p.variant)
	rec.end(s)
	c.n.checks++
	if !dec.Admit {
		c.n.rejects++
		return shard.MatchResult{}, nil
	}

	s = rec.begin("shard.match")
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	res, err := c.coord.Match(ctx, pg, shard.MatchOptions{
		Variant: p.variant, Limit: streamLimit, SkipPrefilter: true, OnEmbedding: c.sink.emit,
	})
	cancel()
	rec.end(s)
	if err != nil {
		return res, err
	}
	if res.Cancelled {
		return res, fmt.Errorf("%w: a %s pattern did not finish in %v", errShardTimeout, p.class, c.timeout)
	}
	c.n.steps += res.Steps
	c.n.embeddings += res.Embeddings
	c.n.partials += res.Partials
	c.n.joinCandidates += res.JoinCandidates
	if res.DecompCacheHit {
		c.n.decompHits++
	}
	if res.Embeddings == 0 {
		c.n.falseAdmits++
	}
	return res, nil
}

// checkAdmitted is a replay-side assertion shared by the replays: every
// pool pattern has embeddings, so a prefilter reject is a wrong answer.
func checkAdmitted(res *result, n layerCounts) {
	if n.rejects > 0 {
		res.problemf("replay: prefilter rejected %d requests for patterns that have embeddings", n.rejects)
	}
}
