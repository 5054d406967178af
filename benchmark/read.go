package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"csce/internal/core"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/shard"
)

// readWorkload is a read-only HTTP workload: one dataset, one pool rule,
// closed-loop clients.
type readWorkload struct {
	name    string
	dataset string
	clients int
	rule    func(g *graph.Graph) poolRule
	sharded int // >0: csced -shards K, a scatter-gather coordinator
}

var readSelective = readWorkload{
	name:    "read-selective",
	dataset: "Human",
	clients: 2,
	rule: func(*graph.Graph) poolRule {
		return poolRule{
			classes: []class{
				{8, true, quotas(16)}, {16, true, quotas(16)}, {32, true, quotas(16)}, {8, false, quotas(16)},
			},
			keep: selectiveKeep,
		}
	},
}

var readEnumerate = readWorkload{
	name:    "read-enumerate",
	dataset: "Human",
	clients: 2,
	rule: func(*graph.Graph) poolRule {
		return poolRule{
			classes: []class{{8, false, quotasNoVertex(8)}, {16, false, quotasNoVertex(8)}},
			keep:    enumerateKeep,
		}
	},
}

// shardedRead keeps to the pattern shapes the seed's scatter-gather
// completes on: sparse patterns up to 16 vertices and 4-vertex dense ones.
// Dense patterns of 8 vertices and more blow the twig partials up (millions
// of rows, multi-second timeouts, a 4 GiB resident set on D16), so they
// cannot be part of a workload on which no operation may fail.
//
// Within those shapes the pool also bounds every pattern vertex's star (see
// maxStar): one pattern in thirty has a star with 30000-90000 matches and
// costs 10-40 ms against a 0.5 ms median, so whether a seed drew none or
// two of them moved ops_s by a quarter.
var shardedRead = readWorkload{
	name:    "sharded-read",
	dataset: "Yeast",
	clients: 2,
	sharded: 4,
	rule: func(g *graph.Graph) poolRule {
		stars := newStarCounter(g)
		return poolRule{
			classes: []class{
				{8, false, quotasNoVertex(16)}, {12, false, quotasNoVertex(16)}, {16, false, quotasNoVertex(16)}, {4, true, quotasNoVertex(16)},
			},
			keep: func(eng *core.Engine, p *graph.Graph, v graph.Variant) (uint64, bool, error) {
				n, ok, err := selectiveKeep(eng, p, v)
				return n, ok && stars.maxStar(p) <= shardedMaxStar, err
			},
		}
	},
}

// shardEnumerateRule is the read-enumerate rule on Yeast, for the
// replay-only shard.enumerate_ms_p50 probe. S8 only: on the seed an S16
// pattern of this rule ran 16 s past a 1 s deadline and materialized 5 GB
// of partials inside the harness process.
var shardEnumerateRule = poolRule{
	classes: []class{{8, false, quotasNoVertex(8)}},
	keep:    enumerateKeep,
}

// shardEnumerateTimeout censors the enumerate probe: some of its patterns
// materialize ~1 GB of partials per second, and a probe that ran them out
// would cost more than the rest of the traced run.
const shardEnumerateTimeout = time.Second

// readInputs are a read workload's generated inputs.
type readInputs struct {
	g    *graph.Graph
	eng  *core.Engine // the oracle's own single-store engine
	pool []pattern
}

// prepare generates the data graph and the seeded pool and checks both
// against inputs.lock (pools only for the default seed).
func (w readWorkload) prepare(e *env) (*readInputs, error) {
	g, err := loadDataset(w.dataset)
	if err != nil {
		return nil, err
	}
	if err := checkGraph(e, w.dataset, g); err != nil {
		return nil, err
	}
	eng := core.NewEngine(g)
	pool, err := buildPool(g, eng, rand.New(rand.NewSource(e.seed)), w.rule(g))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := checkPool(e, w.name, pool); err != nil {
		return nil, err
	}
	return &readInputs{g: g, eng: eng, pool: pool}, nil
}

func checkGraph(e *env, dataset string, g *graph.Graph) error {
	d, err := graphDigest(g)
	if err != nil {
		return err
	}
	return e.lock.check("graph/"+dataset, d, e.pin)
}

// checkPool pins pools for the default seed only; other seeds have no
// recorded digest to compare against.
func checkPool(e *env, name string, pool []pattern) error {
	if e.seed != defaultSeed {
		return nil
	}
	return e.lock.check("pool/"+name, poolDigest(pool), e.pin)
}

// runStats is what every run against a csced records besides its samples.
type runStats struct {
	elapsed       time.Duration
	setups        []float64 // launch-to-healthy seconds of every cold start
	heapMB        float64
	rssPeakMB     float64
	before, after metricsDoc
	phases        map[string][]float64 // server-side per-request phases (ms), measured window only
	logPath       string
	logOffset     int64 // where the measured window starts in the daemon's stderr
}

// begin marks the start of the measured window: /metrics is read and the
// log position noted before the clock starts.
func (st *runStats) begin(d *daemon, logPath string) (err error) {
	st.logPath, st.logOffset = logPath, logOffset(logPath)
	st.before, err = fetchMetrics(d.base)
	return err
}

// finish does the bookkeeping once the clock has stopped: /metrics again,
// the live heap, the resident-set peak, the watchdogs' verdicts, and the
// server-side phases the daemon logged during the window.
func (st *runStats) finish(e *env, d *daemon, res *result) (err error) {
	if st.after, err = fetchMetrics(d.base); err != nil {
		res.problemf("/metrics after the run: %v", err)
		st.after = st.before
	}
	if st.heapMB, err = d.heapLiveMB(); err != nil {
		res.problemf("heap_live_mb: %v", err)
	}
	if kb, ok := d.procKB("VmHWM"); ok {
		st.rssPeakMB = float64(kb) / 1024
	}
	if d.rssExceeded.Load() {
		res.problemf("csced exceeded the %d MiB resident-set cap and was killed", rssCapKB>>10)
	}
	if e.ctx.Err() != nil {
		res.problemf("wall cap reached: %v", e.ctx.Err())
	}
	st.phases, err = logPhases(st.logPath, st.logOffset)
	return err
}

// httpRun is what one read run against a real csced observed.
type httpRun struct {
	runStats
	warm, measured []sample
}

// http starts csced (`starts` cold starts, the last one kept), warms it
// up, runs the closed loop for dur, and judges every reply once the clock
// has stopped.
func (w readWorkload) http(e *env, in *readInputs, res *result, starts int, warm, dur time.Duration) (*httpRun, error) {
	logPath := filepath.Join(e.tmp, w.name+".stderr")
	dp := deployment{dataset: w.dataset, shards: w.sharded}
	d, setups, err := coldStarts(e, logPath, starts, func(int) deployment { return dp })
	if err != nil {
		return nil, err
	}
	defer d.kill()
	run := &httpRun{runStats: runStats{setups: setups}}

	cs := make([]*client, w.clients)
	streams := make([]*requestStream, w.clients)
	for i := range cs {
		cs[i] = newClient(d.base)
		defer cs[i].close()
		streams[i] = newRequestStream(e.seed, i, len(in.pool))
	}
	run.warm, _ = closedLoop(e.ctx, cs, streams, w.dataset, in.pool, warm, len(in.pool))
	if err := run.begin(d, logPath); err != nil {
		return nil, err
	}
	run.measured, run.elapsed = closedLoop(e.ctx, cs, streams, w.dataset, in.pool, dur, 0)
	if err := run.finish(e, d, res); err != nil {
		return nil, err
	}
	o := staticGraph{in.g}
	judge(res, run.warm, in.pool, o)
	judge(res, run.measured, in.pool, o)
	return run, nil
}

// e2e is the end-to-end run of a read workload against a real csced.
func (w readWorkload) e2e(e *env) (*result, error) {
	in, err := w.prepare(e)
	if err != nil {
		return nil, err
	}
	res := newResult()
	run, err := w.http(e, in, res, e.coldStarts(), e.warmup(), e.measure())
	if err != nil {
		return nil, err
	}
	lats := latenciesMs(run.measured)
	res.metrics["setup_s"] = medianOf(run.setups)
	res.metrics["op_p50_ms"] = median(lats)
	res.metrics["ops_s"] = blockRate(doneTimes(run.measured), rateBlocks)
	res.metrics["heap_live_mb"] = run.heapMB
	res.report = append(res.report,
		fmt.Sprintf("%s: %d clients, pool %d, %d warm-up + %d measured requests in %.2fs (mean %.1f ops/s, p95 %.3f ms); cold starts %.3f s; peak RSS %.1f MB",
			w.name, w.clients, len(in.pool), len(run.warm), len(run.measured), run.elapsed.Seconds(),
			ratio(float64(len(run.measured)), run.elapsed.Seconds()), tail(lats), run.setups, run.rssPeakMB))
	return res, nil
}

// fillServer writes the server.* and the match-side client.* metrics of a
// traced HTTP run; lats are the client's sorted /match latencies in ms.
func fillServer(m map[string]float64, st *runStats, lats []float64) {
	p50 := func(key string) float64 { return medianOf(st.phases[key]) }
	m["server.admission_ms_p50"] = p50("admission_ms")
	m["server.plan_ms_p50"] = p50("plan_ms")
	m["server.exec_ms_p50"] = p50("exec_ms")
	m["server.stream_ms_p50"] = p50("stream_ms")
	m["server.total_ms_p50"] = p50("total_ms")
	m["server.http_overhead_ms_p50"] = median(lats) - p50("total_ms")
	diff := func(key string) float64 { return st.after.num(key) - st.before.num(key) }
	hits, misses := diff("plan_cache_hits"), diff("plan_cache_misses")
	m["server.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["server.shed_429"] = diff("queries_rejected") + diff("mutations_rejected")
	m["server.timeouts"] = diff("queries_timed_out")
	m["client.match_p50_ms"] = median(lats)
	m["client.match_p99_ms"] = p99(lats)
	m["client.samples"] = float64(len(lats))
	m["client.rss_peak_mb"] = st.rssPeakMB
}

// traced is the per-layer run of a read workload: a short HTTP run for the
// server's own phase timings, then the in-process span replay of the same
// request stream through the layers the deployment uses.
func (w readWorkload) traced(e *env) (*result, error) {
	in, err := w.prepare(e)
	if err != nil {
		return nil, err
	}
	res := newResult()
	m := res.metrics
	run, err := w.http(e, in, res, 1, e.warmup(), e.measure()*3/10)
	if err != nil {
		return nil, err
	}
	lats := latenciesMs(run.measured)
	fillServer(m, &run.runStats, lats)
	m["client.op_p95_ms"] = tail(lats)

	budget := e.measure() / 2
	rec := newRecorder()
	order := replayOrder(e.seed, len(in.pool))
	// Single-store pipeline on the pool: it is the deployment itself for
	// the single-store workloads, and the baseline shard.slowdown_x is
	// measured against for the sharded one.
	lg := live.NewGraph(w.dataset, core.NewEngine(in.g), live.Options{})
	defer lg.Close()
	coreRec := rec
	if w.sharded > 0 {
		coreRec = newRecorder() // keep the baseline's spans out of the sharded trace
		budget /= 3
	}
	cr := newCoreReplay(coreRec, lg)
	passes, err := replayPasses(e.ctx, order, budget, func(idx int) error {
		got, err := cr.match(idx, in.pool[idx])
		if err == nil && got != in.pool[idx].expect {
			res.problemf("replay: %s pattern returned %d embeddings, oracle expects %d", in.pool[idx].class, got, in.pool[idx].expect)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, err := replayPasses(e.ctx, order, budget/2, func(idx int) error {
		return cr.untraced(idx, in.pool[idx], true)
	}); err != nil {
		return nil, err
	}
	checkAdmitted(res, cr.n)
	res.attempted += cr.n.requests

	if w.sharded == 0 {
		fillCore(m, rec.stats(), cr.n, passes, cr.pipelineUs)
	} else {
		if err := w.shardedReplay(e, in, res, rec, order, budget, coreRec.stats().p50("core.match")); err != nil {
			return nil, err
		}
	}
	path, err := rec.writeSpans(e.outDir, w.name)
	if err != nil {
		return nil, err
	}
	res.report = append(res.report, fmt.Sprintf("%s: traced HTTP run %d requests; replay %d passes of %d requests; spans in %s",
		w.name, len(run.measured), passes, len(order), relPath(e.root, path)))
	return res, nil
}

// shardedReplay replays the pool through a K-shard coordinator and fills
// the shard.* metrics plus the layer metrics the sharded path shares with
// the single-store one (parse, prefilter, exec counters).
func (w readWorkload) shardedReplay(e *env, in *readInputs, res *result, rec *recorder, order []int,
	budget time.Duration, coreMatchUs float64) error {
	coord, err := shard.Open(w.dataset, core.NewEngine(in.g).Store(), shard.Options{K: w.sharded, Observer: shardObserver(rec)})
	if err != nil {
		return err
	}
	defer coord.Close()
	// The coordinator runs inside this process, so the daemon's RSS
	// watchdog has to cover the harness itself here.
	stopGuard := guardSelfRSS()
	defer stopGuard()
	sr := &shardReplay{rec: rec, coord: coord, timeout: 10 * time.Second}
	passes, err := replayPasses(e.ctx, order, budget, func(idx int) error {
		got, err := sr.match(in.pool[idx])
		if err == nil && got.Embeddings != in.pool[idx].expect {
			res.problemf("sharded replay: %s pattern returned %d embeddings, single-store oracle expects %d",
				in.pool[idx].class, got.Embeddings, in.pool[idx].expect)
		}
		return err
	})
	if err != nil {
		return err
	}
	checkAdmitted(res, sr.n)
	res.attempted += sr.n.requests
	ls := rec.stats()
	m := res.metrics
	per := func(v float64) float64 { return ratio(v, float64(passes)) }
	fillFront(m, ls, sr.n, passes)
	m["exec.steps"] = per(float64(sr.n.steps))
	m["exec.embeddings"] = per(float64(sr.n.embeddings))
	m["exec.steps_per_embedding"] = ratio(float64(sr.n.steps), float64(sr.n.embeddings))
	m["core.match_us_p50"] = coreMatchUs
	m["trace.coverage"] = ls.coverage()
	// A caller waits for shard.match's whole span, so that one is reported
	// as a duration; scatter, local and join are self times.
	matchUs := medianOf(spanDurationsUs(rec, "shard.match"))
	m["shard.match_ms_p50"] = matchUs / 1e3
	m["shard.scatter_ms_p50"] = ls.p50("shard.scatter") / 1e3
	m["shard.local_ms_p50"] = ls.p50("shard.local") / 1e3
	m["shard.join_ms_p50"] = ls.p50("shard.join") / 1e3
	m["shard.partials"] = per(float64(sr.n.partials))
	m["shard.join_candidates"] = per(float64(sr.n.joinCandidates))
	m["shard.join_useful_ratio"] = ratio(float64(sr.n.embeddings), float64(sr.n.joinCandidates))
	m["shard.decomp_cache_hit_ratio"] = ratio(float64(sr.n.decompHits), float64(sr.n.requests))
	m["shard.slowdown_x"] = ratio(matchUs, coreMatchUs)

	if e.smoke {
		return nil // the probe below costs seconds by design
	}
	// Enumerate-rule patterns, once each: what a limit-bound reply costs
	// through scatter-gather. Replay only — as an HTTP workload it could
	// not promise that no operation fails.
	enumPool, err := buildPool(in.g, in.eng, rand.New(rand.NewSource(e.seed+7)), shardEnumerateRule)
	if err != nil {
		return err
	}
	var enumMs []float64
	censored := 0
	probe := &shardReplay{rec: newRecorder(), coord: coord, timeout: shardEnumerateTimeout}
	for _, p := range enumPool {
		start := time.Now()
		got, err := probe.match(p)
		switch {
		case errors.Is(err, errShardTimeout):
			censored++
		case err != nil:
			return err
		case got.Embeddings != p.expect:
			res.problemf("sharded enumerate probe: %d embeddings, oracle expects %d", got.Embeddings, p.expect)
		}
		enumMs = append(enumMs, ms(time.Since(start)))
	}
	m["shard.enumerate_ms_p50"] = medianOf(enumMs)
	res.report = append(res.report, fmt.Sprintf("sharded-read: enumerate probe: %d of %d patterns cut off at %v",
		censored, len(enumPool), shardEnumerateTimeout))
	return nil
}

// spanDurationsUs returns the full durations of the named spans.
func spanDurationsUs(rec *recorder, name string) []float64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []float64
	for _, s := range rec.spans {
		if s.name == name {
			out = append(out, us(s.end-s.start))
		}
	}
	return out
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		return rel
	}
	return path
}
