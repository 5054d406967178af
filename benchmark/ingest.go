package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/delta"
	"csce/internal/graph"
	"csce/internal/live"
)

const ingestDataset = "Yeast"

// ingestSegmentSize makes a WAL segment hold ~55 batches, so a checkpoint
// cycle (more than four sealed segments) completes every ~280 rounds and a
// ten-second run sees several of them; the 4 MiB default would see none.
const ingestSegmentSize = 65536

var ingestRule = poolRule{
	classes: []class{
		{8, true, quotas(8)}, {16, true, quotas(8)}, {32, true, quotas(8)}, {8, false, quotas(8)},
	},
	keep: selectiveKeep,
}

// ingestInputs are the ingest-mixed workload's generated inputs.
type ingestInputs struct {
	g    *graph.Graph
	eng  *core.Engine
	pool []pattern
	sub  pattern // the standing 3-vertex path of the subscription
}

func ingestPrepare(e *env) (*ingestInputs, error) {
	g, err := loadDataset(ingestDataset)
	if err != nil {
		return nil, err
	}
	if err := checkGraph(e, ingestDataset, g); err != nil {
		return nil, err
	}
	eng := core.NewEngine(g)
	rng := rand.New(rand.NewSource(e.seed))
	pool, err := buildPool(g, eng, rng, ingestRule)
	if err != nil {
		return nil, fmt.Errorf("ingest-mixed: %w", err)
	}
	sub, err := samplePath(g, eng, rng)
	if err != nil {
		return nil, err
	}
	if err := checkPool(e, "ingest-mixed", append(append([]pattern(nil), pool...), sub)); err != nil {
		return nil, err
	}
	return &ingestInputs{g: g, eng: eng, pool: pool, sub: sub}, nil
}

// samplePath draws the subscription's pattern: a 3-vertex path with 50-400
// embeddings. A commit's events all land in the 256-event subscriber
// buffer at once, and overflowing it drops the subscription; with at most
// a few hundred embeddings in the whole graph, a batch that churns 32 of
// ~9000 edges retracts or creates a handful (a 2000-embedding path lost
// its stream on one seed in ten, when a batch touched a hub edge).
func samplePath(g *graph.Graph, eng *core.Engine, rng *rand.Rand) (pattern, error) {
	for draws := 0; draws < 4000; draws++ {
		p, err := dataset.SamplePattern(g, 3, false, rng)
		if err != nil || p.NumEdges() != 2 {
			continue
		}
		n, err := eng.Count(p, graph.EdgeInduced)
		if err != nil {
			return pattern{}, err
		}
		if n < 50 || n > 400 {
			continue
		}
		var buf bytes.Buffer
		if err := graph.Format(&buf, p); err != nil {
			return pattern{}, err
		}
		return pattern{g: p, text: buf.Bytes(), variant: graph.EdgeInduced, class: "path3", expect: n}, nil
	}
	return pattern{}, fmt.Errorf("ingest-mixed: no 3-vertex path with 50-400 embeddings in 4000 draws")
}

// round is one unit of the ingest closed loop: a mutation batch, then a
// match on the epoch that batch published.
type round struct {
	batch    []mutation
	commit   commitDoc
	sent     time.Time // just before the /mutate request was written
	mutLat   time.Duration
	pat      int
	matchLat time.Duration
	done     time.Duration // end of the round since the loop's start
	reply    matchReply
	err      error // mutate failure
}

// ingestRun is what one run against a durable csced observed.
type ingestRun struct {
	runStats
	warm, measured []round
	recoveryS      float64
	commits        []commitEvent
	deltaLines     uint64
	retLines       uint64
}

func ingestDeployment(walDir string) deployment {
	return deployment{dataset: ingestDataset, walDir: walDir, segmentSize: ingestSegmentSize}
}

// ingestHTTP runs the closed loop against a durable csced: connection 1
// strictly alternates one batch and one match, connection 2 holds the
// subscription and only timestamps events. Afterwards it SIGKILLs the
// daemon, restarts it on the same WAL directory, and runs the oracle.
func ingestHTTP(e *env, in *ingestInputs, res *result, starts int, warm, dur time.Duration) (*ingestRun, error) {
	logPath := filepath.Join(e.tmp, "ingest-mixed.stderr")
	walDir := func(i int) string { return filepath.Join(e.tmp, fmt.Sprintf("wal-%d", i)) }
	d, setups, err := coldStarts(e, logPath, starts, func(i int) deployment { return ingestDeployment(walDir(i)) })
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }() // d is replaced by the restarted daemon below
	run := &ingestRun{runStats: runStats{setups: setups}}

	sub, err := subscribe(d.base, ingestDataset, in.sub.text, variantParam(in.sub.variant))
	if err != nil {
		return nil, err
	}
	defer sub.close()

	gen, err := newMutGen(in.g, e.seed)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.close()
	stream := newRequestStream(e.seed, 0, len(in.pool))
	loop := func(dur time.Duration, minRounds int) ([]round, time.Duration) {
		var rounds []round
		start := time.Now()
		deadline := start.Add(dur)
		for n := 0; e.ctx.Err() == nil && (n < minRounds || time.Now().Before(deadline)); n++ {
			r := round{batch: gen.next(), pat: stream.next()}
			body, _ := json.Marshal(map[string]any{"mutations": r.batch}) // plain structs cannot fail to encode
			r.commit, r.sent, r.mutLat, r.err = c.mutate(ingestDataset, body)
			if r.err == nil {
				p := in.pool[r.pat]
				r.reply, r.matchLat = c.match(matchPath(ingestDataset, p), p.text)
			}
			r.done = time.Since(start)
			rounds = append(rounds, r)
			if r.err != nil {
				// The shadow graph already holds this batch; after a lost
				// or refused batch it no longer mirrors the daemon, and
				// every later batch would be refused too.
				break
			}
		}
		return rounds, time.Since(start)
	}
	// The churn needs absentFloor/16 rounds before it starts re-inserting
	// deleted edges; warm-up covers that transient.
	run.warm, _ = loop(warm, 2*absentFloor/batchSize)
	if err := run.begin(d, logPath); err != nil {
		return nil, err
	}
	run.measured, run.elapsed = loop(dur, 0)

	// The clock has stopped.
	all := append(append([]round(nil), run.warm...), run.measured...)
	var lastSeq uint64
	for _, r := range all {
		if r.err == nil {
			lastSeq = r.commit.LastSeq
		}
	}
	if !sub.waitFor(lastSeq, 5*time.Second) {
		res.problemf("subscription never delivered the commit event of seq %d", lastSeq)
	}
	if err := run.finish(e, d, res); err != nil {
		return nil, err
	}

	// Crash and recover: SIGKILL, restart on the same WAL directory, and
	// require the exact acknowledged position back.
	d.kill()
	sub.close()
	sub.mu.Lock()
	run.commits, run.deltaLines, run.retLines = sub.commits, sub.deltaLines, sub.retLines
	sub.mu.Unlock()
	restarted, recovery, err := launch(e, logPath, ingestDeployment(walDir(starts-1)))
	if err != nil {
		res.problemf("restart after SIGKILL: %v", err)
		return run, nil
	}
	d = restarted
	run.recoveryS = recovery.Seconds()
	info, err := fetchGraph(d.base, ingestDataset)
	switch {
	case err != nil:
		res.problemf("recovered daemon: %v", err)
	case info.LastSeq != lastSeq:
		res.problemf("recovered seq %d, last acknowledged seq %d", info.LastSeq, lastSeq)
	}

	ingestOracle(res, in, all, run, newClient(d.base), e.seed)
	return run, nil
}

// ingestOracle replays the run's own mutation log in process and checks
// every interleaved match count, every first embedding against the shadow
// graph of that round, gapless sequence numbers, the subscription's
// running count, and the pool's counts on the recovered daemon.
func ingestOracle(res *result, in *ingestInputs, all []round, run *ingestRun, recovered *client, seed int64) {
	defer recovered.close()
	store := ccsr.Build(in.g)
	eng := core.FromStore(store)
	shadow, err := newMutGen(in.g, seed)
	if err != nil {
		res.problemf("oracle: %v", err)
		return
	}
	var nextSeq uint64 = 1
	var epoch uint64
	acked := map[uint64]commitDoc{} // last seq -> acknowledgement
	for i, r := range all {
		res.attempted++
		if r.err != nil {
			res.problemf("round %d: mutate: %v", i, r.err)
			break
		}
		// Same seed, same batches: the shadow generator steps in lockstep
		// and holds the graph as it stood after this round's batch.
		if want := shadow.next(); !sameBatch(want, r.batch) {
			res.problemf("round %d: the batch sent is not the batch the seed generates", i)
			break
		}
		for _, m := range r.batch {
			if err := applyToStore(store, in.g.Names, m); err != nil {
				res.problemf("round %d: the oracle's store refuses an acknowledged mutation: %v", i, err)
				return
			}
		}
		epoch++
		if r.commit.Applied != len(r.batch) || r.commit.FirstSeq != nextSeq || r.commit.LastSeq != nextSeq+uint64(len(r.batch))-1 || r.commit.Epoch != epoch {
			res.problemf("round %d: acknowledged applied=%d seqs %d-%d epoch %d, expected %d mutations from seq %d at epoch %d",
				i, r.commit.Applied, r.commit.FirstSeq, r.commit.LastSeq, r.commit.Epoch, len(r.batch), nextSeq, epoch)
		}
		nextSeq = r.commit.LastSeq + 1
		acked[r.commit.LastSeq] = r.commit

		p := in.pool[r.pat]
		want, err := eng.Match(p.g, core.MatchOptions{Variant: p.variant, Limit: streamLimit})
		if err != nil {
			res.problemf("round %d: oracle match: %v", i, err)
			continue
		}
		if err := checkInterleaved(r.reply, want.Embeddings); err != nil {
			res.problemf("round %d: %s %s after epoch %d: %v", i, p.class, variantParam(p.variant), epoch, err)
			continue
		}
		if r.reply.lines > 0 {
			if err := verifyEmbedding(p, r.reply.first, shadow); err != nil {
				res.problemf("round %d: %s %s: %v", i, p.class, variantParam(p.variant), err)
			}
		}
	}

	// Subscription: one commit event per batch, in order, agreeing with
	// the acknowledgement, and count_after = count_before + Σdeltas − Σretractions.
	var deltas, retractions uint64
	if len(run.commits) != len(acked) {
		res.problemf("subscription delivered %d commit events for %d acknowledged batches", len(run.commits), len(acked))
	}
	var prev uint64
	for _, ev := range run.commits {
		ack, ok := acked[ev.seq]
		switch {
		case !ok || ev.seq <= prev:
			res.problemf("subscription commit event at seq %d matches no batch in order", ev.seq)
		case ack.Deltas != ev.deltas || ack.Retractions != ev.retractions:
			res.problemf("seq %d: /mutate acknowledged %d deltas %d retractions, the subscription saw %d and %d",
				ev.seq, ack.Deltas, ack.Retractions, ev.deltas, ev.retractions)
		}
		prev = ev.seq
		deltas += ev.deltas
		retractions += ev.retractions
	}
	if run.deltaLines != deltas || run.retLines != retractions {
		res.problemf("subscription streamed %d delta and %d retract lines, its commit events announce %d and %d",
			run.deltaLines, run.retLines, deltas, retractions)
	}
	after, err := eng.Count(in.sub.g, in.sub.variant)
	if err != nil {
		res.problemf("oracle count of the subscription pattern: %v", err)
	} else if in.sub.expect+deltas-retractions != after {
		res.problemf("subscription count: before %d + %d deltas - %d retractions = %d, the graph now holds %d",
			in.sub.expect, deltas, retractions, in.sub.expect+deltas-retractions, after)
	}

	// The recovered daemon must answer every pool pattern as the final
	// state of the log does.
	for _, p := range in.pool {
		want, err := eng.Match(p.g, core.MatchOptions{Variant: p.variant, Limit: streamLimit})
		if err != nil {
			res.problemf("oracle match: %v", err)
			continue
		}
		reply, _ := recovered.match(matchPath(ingestDataset, p), p.text)
		if err := checkInterleaved(reply, want.Embeddings); err != nil {
			res.problemf("after recovery: %s %s: %v", p.class, variantParam(p.variant), err)
		}
	}
}

// checkInterleaved is checkReply for a graph that mutates: a pool pattern
// may have lost every embedding by now, so a prefilter reject is a correct
// answer exactly when the oracle also counts zero.
func checkInterleaved(r matchReply, expect uint64) error {
	if r.err == nil && r.summary.RejectedBy != "" && expect == 0 {
		return nil
	}
	return checkReply(r, expect)
}

func sameBatch(a, b []mutation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyToStore applies one wire mutation to a CCSR store directly.
func applyToStore(st *ccsr.Store, names *graph.LabelTable, m mutation) error {
	switch m.Op {
	case "add_vertex":
		st.AddVertex(names.Vertex(m.Label))
		return nil
	case "insert_edge":
		return st.InsertEdge(graph.VertexID(m.Src), graph.VertexID(m.Dst), 0)
	case "delete_edge":
		return st.DeleteEdge(graph.VertexID(m.Src), graph.VertexID(m.Dst), 0)
	}
	return fmt.Errorf("unknown op %q", m.Op)
}

// roundStats extracts the sorted per-round latencies in milliseconds and
// the rounds' completion times.
func roundStats(rounds []round) (op, mut, match []float64, done []time.Duration) {
	for _, r := range rounds {
		if r.err != nil {
			continue
		}
		done = append(done, r.done)
		op = append(op, ms(r.mutLat+r.matchLat))
		mut = append(mut, ms(r.mutLat))
		match = append(match, ms(r.matchLat))
	}
	sort.Float64s(op)
	sort.Float64s(mut)
	sort.Float64s(match)
	return op, mut, match, done
}

// deltaLatencies pairs each measured batch with its commit event: the time
// from writing the /mutate request to reading "commit" on the stream.
func deltaLatencies(rounds []round, commits []commitEvent) []float64 {
	at := make(map[uint64]time.Time, len(commits))
	for _, ev := range commits {
		at[ev.seq] = ev.at
	}
	var out []float64
	for _, r := range rounds {
		if t, ok := at[r.commit.LastSeq]; ok && r.err == nil {
			out = append(out, ms(t.Sub(r.sent)))
		}
	}
	sort.Float64s(out)
	return out
}

func ingestE2E(e *env) (*result, error) {
	in, err := ingestPrepare(e)
	if err != nil {
		return nil, err
	}
	res := newResult()
	run, err := ingestHTTP(e, in, res, e.coldStarts(), e.warmup(), e.measure())
	if err != nil {
		return nil, err
	}
	op, mut, match, done := roundStats(run.measured)
	res.metrics["setup_s"] = medianOf(run.setups)
	res.metrics["op_p50_ms"] = median(op)
	res.metrics["ops_s"] = blockRate(done, rateBlocks)
	res.metrics["heap_live_mb"] = run.heapMB
	res.report = append(res.report,
		fmt.Sprintf("ingest-mixed: %d warm-up + %d measured rounds in %.2fs; round p95 %.3f ms; mutate p50 %.3f p95 %.3f ms; match p50 %.3f ms; delta p50 %.3f ms; recovery %.3f s; checkpoints %g; cold starts %.3f s; peak RSS %.1f MB",
			len(run.warm), len(run.measured), run.elapsed.Seconds(), tail(op), median(mut), tail(mut), median(match),
			median(deltaLatencies(run.measured, run.commits)), run.recoveryS,
			run.after.liveNum(ingestDataset, "wal_checkpoints")-run.before.liveNum(ingestDataset, "wal_checkpoints"),
			run.setups, run.rssPeakMB))
	return res, nil
}

// ingestTraced is the per-layer run: a short HTTP run for the client- and
// server-side numbers, then the in-process replay of live.Open, Mutate,
// delta.NewEmbeddings and the match pipeline with a span around each.
func ingestTraced(e *env) (*result, error) {
	in, err := ingestPrepare(e)
	if err != nil {
		return nil, err
	}
	res := newResult()
	m := res.metrics
	run, err := ingestHTTP(e, in, res, 1, e.warmup(), e.measure()*3/10)
	if err != nil {
		return nil, err
	}
	op, mut, match, _ := roundStats(run.measured)
	fillServer(m, &run.runStats, match)
	m["client.op_p95_ms"] = tail(op)
	m["client.mutate_p50_ms"] = median(mut)
	m["client.mutate_p95_ms"] = tail(mut)
	m["client.mutate_p99_ms"] = p99(mut)
	m["client.mutate_ops_s"] = ratio(float64(len(mut)*batchSize), run.elapsed.Seconds())
	m["client.delta_p50_ms"] = median(deltaLatencies(run.measured, run.commits))
	m["client.recovery_s"] = run.recoveryS
	m["client.samples"] = float64(len(match) + len(mut))

	// A fixed number of rounds (a function of --seconds only), so the
	// replay's counts repeat exactly from run to run.
	rounds := int(90 * e.seconds)
	rec, rp, err := ingestReplay(e, in, res, rounds)
	if err != nil {
		return nil, err
	}
	ls := rec.stats()
	fillCore(m, ls, rp.core.n, 1, rp.core.pipelineUs)
	m["live.mutate_ms_p50"] = medianOf(spanDurationsUs(rec, "live.mutate")) / 1e3
	m["live.apply_ms_p50"] = ls.p50("live.mutate") / 1e3
	m["live.wal_append_us_p50"] = ls.p50("live.wal_append")
	m["live.wal_fsync_us_p50"] = ls.p50("live.wal_fsync")
	m["live.signature_us_p50"] = ls.p50("live.signature")
	m["live.resume_log_us_p50"] = ls.p50("live.resume_log")
	m["live.checkpoint_ms_p50"] = ls.p50("live.checkpoint") / 1e3
	m["live.checkpoints"] = float64(rp.stats.WALCheckpoints)
	m["live.fsyncs"] = float64(rp.stats.WALFsyncs)
	m["live.wal_bytes_per_mutation"] = ratio(float64(rp.walBytes), float64(rp.walMutations))
	m["live.open_replay_ms"] = ls.p50("live.open") / 1e3
	m["delta.new_embeddings_us_p50"] = ls.p50("delta.new_embeddings")
	m["delta.deltas"] = float64(rp.core.n.deltas)
	m["delta.retractions"] = float64(rp.core.n.retractions)
	res.attempted += rounds

	path, err := rec.writeSpans(e.outDir, "ingest-mixed")
	if err != nil {
		return nil, err
	}
	res.report = append(res.report, fmt.Sprintf("ingest-mixed: traced HTTP run %d rounds; replay %d rounds; spans in %s",
		len(run.measured), rounds, relPath(e.root, path)))
	return res, nil
}

// walSampleRound is the replay round after which WAL bytes per mutation
// are read off the disk.
const walSampleRound = 200

// ingestReplayResult carries what the replay measured besides its spans.
type ingestReplayResult struct {
	core  *coreReplay
	stats live.Stats
	// walBytes on disk after walMutations mutations, sampled at the last
	// round before the first checkpoint.
	walBytes     int64
	walMutations int
}

// ingestReplay opens a durable live graph in process and replays `rounds`
// rounds of the workload single-threaded: Mutate (with the WAL's Observer
// hooks as child spans), delta.NewEmbeddings on the batch's last insert,
// the match pipeline on the new epoch, and finally a cold live.Open of the
// directory it wrote.
func ingestReplay(e *env, in *ingestInputs, res *result, rounds int) (*recorder, *ingestReplayResult, error) {
	rec := newRecorder()
	dir := filepath.Join(e.tmp, "replay-wal")
	opts := live.Options{
		Durability: live.Durability{Dir: dir, Fsync: live.FsyncAlways, SegmentSize: ingestSegmentSize},
		Observer: live.Observer{
			WALFsync: rec.hook("live.wal_fsync"),
			WALAppend: func(d time.Duration) {
				rec.adopt(rec.observed("live.wal_append", d), "live.wal_fsync")
			},
			WALCheckpoint: func(d time.Duration) {
				rec.adopt(rec.observed("live.checkpoint", d), "live.wal_fsync")
			},
			SigMaintain:     rec.hook("live.signature"),
			ResumeLogAppend: rec.hook("live.resume_log"),
		},
	}
	lg, err := live.Open(ingestDataset, core.NewEngine(in.g), opts)
	if err != nil {
		return nil, nil, err
	}
	defer func() { lg.Close() }() // lg is replaced by the reopened graph below
	sub, err := lg.Subscribe(in.sub.g, in.sub.variant)
	if err != nil {
		return nil, nil, err
	}
	gen, err := newMutGen(in.g, e.seed)
	if err != nil {
		return nil, nil, err
	}
	out := &ingestReplayResult{core: newCoreReplay(rec, lg)}
	stream := newRequestStream(e.seed, 0, len(in.pool))
	ctx := context.Background()
	for i := 0; i < rounds && e.ctx.Err() == nil; i++ {
		batch := gen.next()
		muts, lastInsert := toLiveMutations(batch, lg.Names())

		rec.nextRequest()
		s := rec.begin("live.mutate")
		com, err := lg.Mutate(ctx, muts)
		rec.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("replay round %d: %w", i, err)
		}
		out.core.n.deltas += com.Deltas
		out.core.n.retractions += com.Retractions
		drain(sub)

		snap := lg.Acquire()
		s = rec.begin("delta.new_embeddings")
		_, err = delta.NewEmbeddings(snap.Store(), in.sub.g, lastInsert, delta.Options{Variant: in.sub.variant})
		rec.end(s)
		snap.Release()
		if err != nil {
			return nil, nil, fmt.Errorf("replay round %d: %w", i, err)
		}

		idx := stream.next()
		if _, err := out.core.match(idx, in.pool[idx]); err != nil {
			return nil, nil, fmt.Errorf("replay round %d: %w", i, err)
		}
		// No cached plan: every read follows a commit, so the server misses too.
		if err := out.core.untraced(idx, in.pool[idx], false); err != nil {
			return nil, nil, err
		}
		// Bytes per mutation are read once, well before the first
		// checkpoint (~280 rounds) truncates the log; afterwards the disk
		// no longer holds every byte appended.
		if i+1 == walSampleRound || (i+1 == rounds && rounds < walSampleRound) {
			st := lg.Stats()
			out.walBytes, out.walMutations = st.WALDiskBytes, (i+1)*batchSize
		}
	}
	out.stats = lg.Stats()
	lastSeq := out.stats.LastSeq
	lg.Close()

	rec.nextRequest()
	s := rec.begin("live.open")
	reopened, err := live.Open(ingestDataset, core.NewEngine(in.g), live.Options{Durability: opts.Durability})
	rec.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: reopen: %w", err)
	}
	lg = reopened
	if got := reopened.Stats().LastSeq; got != lastSeq {
		res.problemf("replay: live.Open recovered seq %d, the log was closed at seq %d", got, lastSeq)
	}
	return rec, out, nil
}

// drain empties the subscription's buffer so the single-threaded replay
// never lets it overflow.
func drain(sub *live.Subscription) {
	for {
		select {
		case _, ok := <-sub.Events():
			if !ok {
				return
			}
		default:
			return
		}
	}
}

// toLiveMutations converts a wire batch to typed mutations the way
// resolveMutations does, and returns the batch's last inserted edge.
func toLiveMutations(batch []mutation, names *graph.LabelTable) ([]live.Mutation, delta.Edge) {
	out := make([]live.Mutation, 0, len(batch))
	var last delta.Edge
	for _, m := range batch {
		switch m.Op {
		case "add_vertex":
			out = append(out, live.Mutation{Op: live.OpAddVertex, VertexLabel: names.Vertex(m.Label), LabelName: m.Label, LabelNamed: true})
		case "insert_edge":
			out = append(out, live.Mutation{Op: live.OpInsertEdge, Src: graph.VertexID(m.Src), Dst: graph.VertexID(m.Dst), LabelNamed: true})
			last = delta.Edge{Src: graph.VertexID(m.Src), Dst: graph.VertexID(m.Dst)}
		case "delete_edge":
			out = append(out, live.Mutation{Op: live.OpDeleteEdge, Src: graph.VertexID(m.Src), Dst: graph.VertexID(m.Dst), LabelNamed: true})
		}
	}
	return out, last
}
