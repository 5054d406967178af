package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/delta"
	"csce/internal/graph"
	"csce/internal/obs"
	"csce/internal/prefilter"
)

// Graph is one writable registered graph: a private writer store mutated
// under g.mu, a published snapshot readers pin lock-free, the WAL (the
// in-memory tail, plus the durable segment log when configured), and the
// subscriber table. Construct with Open (or NewGraph for a purely
// in-memory graph); all methods are safe for concurrent use.
type Graph struct {
	name string
	opts Options
	wal  *wal
	dwal *diskWAL // nil without Options.Durability.Dir

	// sig is the admission pre-filter signature. It is built from the
	// opening state (in-memory or recovered) and maintained inside Mutate's
	// commit path, so it always describes a published epoch; the pointer
	// itself never changes after Open.
	sig *prefilter.Signature

	// mu is the writer lock: it serializes Mutate/Subscribe/Close and
	// guards writer, resumeBase, resumeEpoch, subs, nextSubID, closed, and
	// epoch.
	// Queries never take it.
	mu        sync.Mutex
	writer    *ccsr.Store
	subs      map[uint64]*Subscription
	nextSubID uint64
	closed    bool
	epoch     uint64

	// resumeBase is the graph's state at exactly the in-memory WAL's
	// oldest-resumable seq: applying the retained tail to a clone of it
	// reconstructs every intermediate state a resuming subscriber needs.
	// It rolls forward as retention truncates the tail. With a durable WAL
	// it is also what a checkpoint serializes (at resumeEpoch, the epoch of
	// the last record folded into it), so the checkpoint a restart loads is
	// the resume base of the window it rebuilds.
	resumeBase  *ccsr.Store
	resumeEpoch uint64

	recovery RecoveryStats

	// snapMu guards only the cur pointer, held for pointer-swap duration;
	// cur is written under mu+snapMu and read under either.
	snapMu sync.Mutex
	cur    *Snapshot

	// retMu guards retained: per-epoch metadata of every snapshot that
	// has not drained yet, for GC-pressure metrics.
	retMu    sync.Mutex
	retained map[uint64]snapMeta

	stats counters
}

// snapMeta describes one undrained snapshot for GC-pressure accounting.
type snapMeta struct {
	created time.Time
	bytes   int
}

type counters struct {
	batches              atomic.Uint64
	batchesFailed        atomic.Uint64
	verticesAdded        atomic.Uint64
	edgesInserted        atomic.Uint64
	edgesDeleted         atomic.Uint64
	snapshotsLive        atomic.Int64
	snapshotsDrained     atomic.Uint64
	subsTotal            atomic.Uint64
	subsDropped          atomic.Uint64
	subsResumed          atomic.Uint64
	deltasDelivered      atomic.Uint64
	retractionsDelivered atomic.Uint64
	checkpointFailures   atomic.Uint64
}

// RecoveryStats reports what Open reconstructed from a durable WAL
// directory. The zero value means no durability was configured.
type RecoveryStats struct {
	// HasCheckpoint reports whether a checkpoint file seeded the replay
	// (CheckpointSeq/CheckpointEpoch are its position).
	HasCheckpoint   bool   `json:"has_checkpoint"`
	CheckpointSeq   uint64 `json:"checkpoint_seq"`
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	// ReplayedRecords is how many log records were applied on top.
	ReplayedRecords int `json:"replayed_records"`
	// RecoveredSeq/RecoveredEpoch are the position the graph reopened at.
	RecoveredSeq   uint64 `json:"recovered_seq"`
	RecoveredEpoch uint64 `json:"recovered_epoch"`
	// TornTail reports that the final segment ended mid-record (a crash
	// during an append) and was truncated back to the last whole record.
	TornTail bool `json:"torn_tail"`
	// ResumeWindowRestored reports that the replayed log rebuilt a
	// non-empty subscription window, so subscribers can resume from any seq
	// in [ResumeOldestSeq, RecoveredSeq] exactly as if the process had
	// never died. The window is the log itself, so it can only be lost
	// together with the acknowledged data it belongs to.
	ResumeWindowRestored bool `json:"resume_window_restored"`
	// ResumeOldestSeq is the oldest resumable seq after recovery (equals
	// RecoveredSeq when the window starts empty).
	ResumeOldestSeq uint64 `json:"resume_oldest_seq"`
	// ResumeRecords is how many tail records the restored window holds.
	ResumeRecords int `json:"resume_records"`
	// UpgradedLayout reports that Open found the files of the older
	// layout (NNN.inc checkpoint-chain files, a resume/ directory) and
	// normalized them: chain files renamed back to segments, resume/
	// removed.
	UpgradedLayout bool `json:"upgraded_layout"`
	// Duration is the wall time of checkpoint load + replay.
	Duration time.Duration `json:"duration_ns"`
}

// NewGraph wraps an engine for purely in-memory live mutation: any
// Durability in opts is ignored. The engine's store becomes the epoch-0
// published snapshot; the engine must not be mutated elsewhere afterwards.
func NewGraph(name string, eng *core.Engine, opts Options) *Graph {
	opts.Durability = Durability{}
	g, err := Open(name, eng, opts)
	if err != nil {
		// Unreachable: every error path in Open touches the disk WAL.
		panic(err)
	}
	return g
}

// Open wraps an engine for live mutation. With Options.Durability.Dir set
// it first recovers from the WAL directory: the base state is the
// checkpoint if one exists (the engine's store otherwise), the segment
// log is replayed on top — truncating a torn tail left by a crash
// mid-append — and the graph reopens at the exact committed seq and epoch.
// The engine's store (or the recovered state) becomes the first published
// snapshot; the engine must not be mutated elsewhere afterwards.
func Open(name string, eng *core.Engine, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	g := &Graph{
		name:     name,
		opts:     opts,
		subs:     make(map[uint64]*Subscription),
		retained: make(map[uint64]snapMeta),
	}
	if opts.Durability.Dir == "" {
		g.wal = newWAL(opts.WALRetention, 0)
		g.writer = eng.Store().Clone()
		g.resumeBase = eng.Store().Clone()
		g.sig = prefilter.Build(g.writer)
		g.installSnapshot(newSnapshot(0, eng, g.drainHook(0)))
		return g, nil
	}
	if err := g.recover(eng); err != nil {
		return nil, err
	}
	return g, nil
}

// recover rebuilds the graph's state from its durable WAL directory and
// leaves the disk log open for appending. The checkpoint (or, without one,
// the engine's store at seq 0) seeds writer and resume base alike; every
// later record is then applied to the writer and admitted to the window
// exactly as Mutate would have, so the ring, the resume base and the
// resumable-from watermark come back as the pre-restart process left them.
func (g *Graph) recover(eng *core.Engine) error {
	start := time.Now()
	dw, upgraded, err := openDiskWAL(g.opts.Durability, g.opts.Observer)
	if err != nil {
		return err
	}
	g.recovery.UpgradedLayout = upgraded
	base := eng.Store()
	ckStore, ckSeq, ckEpoch, hasCk, err := dw.loadCheckpoint()
	if err != nil {
		return err
	}
	if hasCk {
		base = ckStore
		g.recovery.HasCheckpoint = true
		g.recovery.CheckpointSeq = ckSeq
		g.recovery.CheckpointEpoch = ckEpoch
	}
	// Both clones share base's label table, so re-interning a record's
	// label by name once — runtime-minted labels keep their identity across
	// the restart that way — yields an id valid for writer and resume base.
	g.writer = base.Clone()
	g.resumeBase = base.Clone()
	g.resumeEpoch = ckEpoch
	g.epoch = ckEpoch
	g.wal = newWAL(g.opts.WALRetention, ckSeq)
	replayed, torn, err := dw.replay(ckSeq, func(rec Record) error {
		reinternMutation(g.writer.Names(), &rec.Mut)
		if err := applyRaw(g.writer, rec.Mut); err != nil {
			return fmt.Errorf("live: replay seq %d (%s): %w", rec.Seq, rec.Mut.Op, err)
		}
		g.epoch = rec.Epoch
		g.retainLocked([]Record{rec})
		return nil
	})
	if err != nil {
		return err
	}
	lastSeq := g.wal.lastSeq()
	if err := dw.openAppend(lastSeq + 1); err != nil {
		return err
	}
	g.dwal = dw
	// The signature is rebuilt from the recovered writer, not replayed
	// mutation-by-mutation: recovery re-interns labels by name, so only the
	// post-replay store holds the ids the new process will mutate under.
	g.sig = prefilter.Build(g.writer)
	pub := g.writer.Clone()
	g.installSnapshot(newSnapshot(g.epoch, core.FromStore(pub), g.drainHook(g.epoch)))
	g.recovery.ResumeOldestSeq = g.wal.oldestResumable()
	g.recovery.ResumeRecords, _ = g.wal.size()
	g.recovery.ResumeWindowRestored = g.recovery.ResumeRecords > 0
	g.recovery.ReplayedRecords = replayed
	g.recovery.RecoveredSeq = lastSeq
	g.recovery.RecoveredEpoch = g.epoch
	g.recovery.TornTail = torn
	g.recovery.Duration = time.Since(start)
	observe(g.opts.Observer.WALReplay, start)
	return nil
}

// retainLocked admits committed records to the resume window: they join
// the ring, and whatever retention pushes out of its far end folds into
// resumeBase, which thereby stays at exactly the resumable-from
// watermark. Mutate and crash recovery both log through here.
func (g *Graph) retainLocked(recs []Record) {
	for _, rec := range g.wal.appendRecords(recs) {
		if err := applyRaw(g.resumeBase, rec.Mut); err != nil {
			// Unreachable: the record already applied cleanly to the
			// writer after the same prefix.
			panic(fmt.Sprintf("live: resume base diverged at seq %d: %v", rec.Seq, err))
		}
		g.resumeEpoch = rec.Epoch
	}
}

// reinternMutation rewrites a named mutation's label id by re-interning
// its symbolic name (the id alone is only stable within a single process
// lifetime). Interning may mutate the table, so this must only run
// single-threaded — which recovery is. Nameless mutations keep their raw
// id by contract.
func reinternMutation(names *graph.LabelTable, m *Mutation) {
	if !m.LabelNamed || names == nil {
		return
	}
	if m.Op == OpAddVertex {
		m.VertexLabel = names.Vertex(m.LabelName)
	} else {
		m.EdgeLabel = names.Edge(m.LabelName)
	}
}

// applyRaw applies one record by its interned ids, never touching the
// label table. Correct for any record minted by this process run, or
// passed through reinternMutation by its recovery: the ids were assigned
// under the current table, and re-interning would race with concurrent
// interning elsewhere.
func applyRaw(st *ccsr.Store, m Mutation) error {
	switch m.Op {
	case OpAddVertex:
		st.AddVertex(m.VertexLabel)
		return nil
	case OpInsertEdge:
		return st.InsertEdge(m.Src, m.Dst, m.EdgeLabel)
	case OpDeleteEdge:
		return st.DeleteEdge(m.Src, m.Dst, m.EdgeLabel)
	default:
		return fmt.Errorf("unknown op %d", m.Op)
	}
}

// installSnapshot publishes the first snapshot at construction time.
func (g *Graph) installSnapshot(s *Snapshot) {
	g.cur = s
	g.stats.snapshotsLive.Store(1)
	g.retMu.Lock()
	g.retained[s.epoch] = snapMeta{created: time.Now(), bytes: s.Store().CompressedBytes()}
	g.retMu.Unlock()
}

// drainHook builds the per-snapshot drain callback: it keeps the GC-
// pressure accounting exact by forgetting the epoch's retained metadata
// the moment the last reader lets go.
func (g *Graph) drainHook(epoch uint64) func() {
	return func() {
		g.stats.snapshotsDrained.Add(1)
		g.stats.snapshotsLive.Add(-1)
		g.retMu.Lock()
		delete(g.retained, epoch)
		g.retMu.Unlock()
	}
}

// Recovery reports what Open reconstructed from the durable WAL; the zero
// value means the graph is purely in-memory.
func (g *Graph) Recovery() RecoveryStats { return g.recovery }

// Prefilter returns the graph's admission signature. The pointer is fixed
// at Open; the signature itself synchronizes its own readers against the
// commit path's batched updates.
func (g *Graph) Prefilter() *prefilter.Signature { return g.sig }

// Names returns the label table of the live writer — after a recovery it
// includes every label minted by replayed mutations, not just the ones
// the base engine knew.
func (g *Graph) Names() *graph.LabelTable {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.writer.Names()
}

// Name returns the registry name the graph was created under.
func (g *Graph) Name() string { return g.name }

// Acquire pins the current snapshot for reading. The caller must Release
// it exactly once; until then the snapshot (and its epoch's store) stays
// valid even across later commits.
func (g *Graph) Acquire() *Snapshot {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	g.cur.refs.Add(1)
	return g.cur
}

// Epoch returns the currently published epoch without pinning it.
func (g *Graph) Epoch() uint64 {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	return g.cur.epoch
}

// Commit reports one applied batch.
type Commit struct {
	// FirstSeq..LastSeq are the WAL sequence numbers assigned to the
	// batch, in mutation order.
	FirstSeq, LastSeq uint64
	// Epoch is the snapshot epoch that made the batch visible.
	Epoch uint64
	// AddedVertices are the IDs assigned to OpAddVertex mutations, in
	// batch order.
	AddedVertices []graph.VertexID
	// Deltas is the total number of delta embeddings delivered to
	// subscribers for this batch; Retractions counts the embeddings
	// retracted by the batch's deletions.
	Deltas      uint64
	Retractions uint64
}

// Mutate applies a batch atomically: all mutations commit in one snapshot
// swap, or none do. On an invalid mutation (or ctx cancellation during
// delta enumeration) the private writer is rebuilt from the published
// snapshot and the error is returned with nothing logged or visible.
//
// When ctx carries an obs.Trace, "live.apply", "live.swap", and
// "live.notify" spans record the stage breakdown.
func (g *Graph) Mutate(ctx context.Context, muts []Mutation) (Commit, error) {
	if len(muts) == 0 {
		return Commit{}, fmt.Errorf("live: empty mutation batch")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return Commit{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return Commit{}, err
	}

	tr := obs.TraceFrom(ctx)
	var com Commit
	staged := make(map[*Subscription][]Event)
	var vertsAdded, edgesIns, edgesDel uint64

	endApply := tr.StartSpan("live.apply")
	for i, m := range muts {
		if err := g.applyLocked(ctx, i, m, &com, staged); err != nil {
			endApply(obs.Int("mutations", int64(len(muts))), obs.Str("failed_op", string(m.Op)))
			g.rollbackLocked()
			g.stats.batchesFailed.Add(1)
			return Commit{}, fmt.Errorf("live: mutation %d (%s): %w", i, m.Op, err)
		}
		switch m.Op {
		case OpAddVertex:
			vertsAdded++
		case OpInsertEdge:
			edgesIns++
		case OpDeleteEdge:
			edgesDel++
		}
	}
	endApply(obs.Int("mutations", int64(len(muts))),
		obs.Int("vertices_added", int64(vertsAdded)),
		obs.Int("edges_inserted", int64(edgesIns)),
		obs.Int("edges_deleted", int64(edgesDel)))

	// Commit: log (durably first — a batch the disk refuses is aborted,
	// not acknowledged), publish, notify. The swap is the commit point
	// for readers; the disk append is the commit point for crashes.
	endSwap := tr.StartSpan("live.swap")
	com.Epoch = g.epoch + 1
	com.FirstSeq = g.wal.peekNextSeq()
	com.LastSeq = com.FirstSeq + uint64(len(muts)) - 1
	recs := make([]Record, len(muts))
	for i, m := range muts {
		recs[i] = Record{Seq: com.FirstSeq + uint64(i), Epoch: com.Epoch, Mut: m}
	}
	if g.dwal != nil {
		if err := g.dwal.append(recs); err != nil {
			endSwap()
			g.rollbackLocked()
			g.stats.batchesFailed.Add(1)
			return Commit{}, err
		}
	}
	retainStart := time.Now()
	g.retainLocked(recs)
	observe(g.opts.Observer.ResumeLogAppend, retainStart)
	// Fold the batch into the admission signature while still holding the
	// writer lock and only after the durable append accepted it: rollback
	// paths never touch the signature, and the whole batch lands atomically
	// with respect to concurrent admission checks. Interned ids are safe
	// here for the same reason applyLocked uses them.
	sigStart := time.Now()
	g.sig.Batch(func(b *prefilter.BatchWriter) {
		for _, m := range muts {
			switch m.Op {
			case OpAddVertex:
				b.AddVertex(m.VertexLabel)
			case OpInsertEdge:
				b.InsertEdge(m.Src, m.Dst, m.EdgeLabel)
			case OpDeleteEdge:
				b.DeleteEdge(m.Src, m.Dst, m.EdgeLabel)
			}
		}
	})
	observe(g.opts.Observer.SigMaintain, sigStart)
	g.publishLocked()
	endSwap(obs.Int("epoch", int64(com.Epoch)),
		obs.Int("first_seq", int64(com.FirstSeq)),
		obs.Int("last_seq", int64(com.LastSeq)))

	endNotify := tr.StartSpan("live.notify")
	com.Deltas, com.Retractions = g.notifyLocked(com, staged)
	endNotify(obs.Int("deltas", int64(com.Deltas)),
		obs.Int("retractions", int64(com.Retractions)))

	g.stats.batches.Add(1)
	g.stats.verticesAdded.Add(vertsAdded)
	g.stats.edgesInserted.Add(edgesIns)
	g.stats.edgesDeleted.Add(edgesDel)
	g.stats.deltasDelivered.Add(com.Deltas)
	g.stats.retractionsDelivered.Add(com.Retractions)

	if g.dwal != nil {
		// The checkpoint is taken at the resumable-from watermark, not at
		// the head: resumeBase is already the state there, and every
		// segment a checkpoint there covers is one no subscriber can ask
		// for any more. A failed checkpoint is not a failed commit — the
		// batch is already durable in the segment log — so it only counts,
		// it never errors the acknowledged mutation back to the client.
		if from := g.wal.oldestResumable(); g.dwal.needsCheckpoint(from) {
			if err := g.dwal.checkpoint(g.resumeBase, from, g.resumeEpoch); err != nil {
				g.stats.checkpointFailures.Add(1)
			}
		}
	}
	return com, nil
}

// applyLocked applies one mutation to the private writer and, for
// insertions, stages the delta embeddings of every subscription against
// the writer's intermediate state — the store holds exactly the batch
// prefix up to and including this insertion, which is what makes
// count(after) = count(before) + Σ deltas hold across a batch.
func (g *Graph) applyLocked(ctx context.Context, mutIndex int, m Mutation, com *Commit, staged map[*Subscription][]Event) error {
	switch m.Op {
	case OpAddVertex:
		id := g.writer.AddVertex(m.VertexLabel)
		com.AddedVertices = append(com.AddedVertices, id)
		return nil
	case OpInsertEdge:
		if err := g.writer.InsertEdge(m.Src, m.Dst, m.EdgeLabel); err != nil {
			return err
		}
		return g.stageDeltasLocked(ctx, mutIndex, m, staged)
	case OpDeleteEdge:
		// Retractions enumerate against the state that still has the
		// edge: every embedding using it is about to be destroyed.
		if err := g.stageRetractionsLocked(ctx, mutIndex, m, staged); err != nil {
			return err
		}
		return g.writer.DeleteEdge(m.Src, m.Dst, m.EdgeLabel)
	default:
		return fmt.Errorf("unknown op %d", m.Op)
	}
}

// stageDeltasLocked enumerates, per subscription, the embeddings created
// by the insertion just applied to the writer.
func (g *Graph) stageDeltasLocked(ctx context.Context, mutIndex int, m Mutation, staged map[*Subscription][]Event) error {
	return g.stageEventsLocked(ctx, EventDelta, delta.NewEmbeddings, mutIndex, m, staged)
}

// stageRetractionsLocked enumerates, per subscription, the embeddings the
// upcoming deletion destroys. The writer must still contain the edge.
func (g *Graph) stageRetractionsLocked(ctx context.Context, mutIndex int, m Mutation, staged map[*Subscription][]Event) error {
	return g.stageEventsLocked(ctx, EventRetract, delta.RemovedEmbeddings, mutIndex, m, staged)
}

// stageEventsLocked is the shared enumeration: for each subscription the
// mutation's edge can touch, the embeddings through that edge at the
// writer's current intermediate state become events of the given kind —
// the store holds exactly the batch prefix up to this mutation, which is
// what makes count(after) = count(before) + Σdeltas − Σretractions hold
// across a batch.
func (g *Graph) stageEventsLocked(
	ctx context.Context,
	kind EventKind,
	enumerate func(*ccsr.Store, *graph.Graph, delta.Edge, delta.Options) (uint64, error),
	mutIndex int,
	m Mutation,
	staged map[*Subscription][]Event,
) error {
	for _, sub := range g.subs {
		if sub.condemned || !sub.patternUsesLabel(m.EdgeLabel) {
			continue
		}
		events := staged[sub]
		_, err := enumerate(g.writer, sub.pattern, delta.Edge{Src: m.Src, Dst: m.Dst, Label: m.EdgeLabel}, delta.Options{
			Variant: sub.variant,
			Ctx:     ctx,
			OnEmbedding: func(mapping []graph.VertexID) bool {
				if len(events) >= sub.buffer() {
					// The batch alone would overflow the subscriber's
					// channel; condemn it now instead of enumerating an
					// unbounded delta it can never receive.
					sub.condemned = true
					return false
				}
				events = append(events, Event{
					Kind:      kind,
					Seq:       uint64(mutIndex), // rebased to FirstSeq+mutIndex at notify
					Src:       m.Src,
					Dst:       m.Dst,
					EdgeLabel: m.EdgeLabel,
					Embedding: append([]graph.VertexID(nil), mapping...),
				})
				return true
			},
		})
		if err != nil {
			return err
		}
		// A cancelled enumeration returns partial deltas with a nil error
		// (exec's graceful-cancel contract); the batch must still abort.
		if err := ctx.Err(); err != nil {
			return err
		}
		staged[sub] = events
	}
	return nil
}

// rollbackLocked discards the writer's speculative state by re-cloning the
// published snapshot. Readers hold that store, but it is a Clone result
// nobody ever wrote, so it owns nothing and Clone writes nothing to it.
func (g *Graph) rollbackLocked() {
	g.writer = g.cur.Store().Clone()
}

// publishLocked clones the writer into a fresh immutable snapshot and
// swaps it in. The clone copies nothing: it seals the writer (compacts the
// clusters the batch dirtied, drops their ownership) and from then on
// shares every cluster with it; the writer copies a cluster again the next
// time a batch writes it, so the snapshot is never written. Old snapshot:
// publisher reference dropped, so it drains once the last in-flight query
// releases it.
func (g *Graph) publishLocked() {
	next := g.writer.Clone()
	g.epoch++
	snap := newSnapshot(g.epoch, core.FromStore(next), g.drainHook(g.epoch))
	g.stats.snapshotsLive.Add(1)
	g.retMu.Lock()
	g.retained[g.epoch] = snapMeta{created: time.Now(), bytes: next.CompressedBytes()}
	g.retMu.Unlock()
	g.snapMu.Lock()
	old := g.cur
	g.cur = snap
	g.snapMu.Unlock()
	old.Release()
}

// notifyLocked delivers staged delta/retract events plus one commit
// marker to every subscription. Sends never block: a subscriber whose
// buffer is full (or that was condemned during staging) is dropped — its
// channel closes without an explicit Close, and Dropped() reports why.
func (g *Graph) notifyLocked(com Commit, staged map[*Subscription][]Event) (deltas, retractions uint64) {
	for _, sub := range g.subs {
		events := staged[sub]
		if sub.condemned {
			g.dropLocked(sub)
			continue
		}
		var d, r uint64
		for _, ev := range events {
			if ev.Kind == EventDelta {
				d++
			} else {
				r++
			}
		}
		ok := true
		for _, ev := range events {
			ev.Seq += com.FirstSeq
			ev.Epoch = com.Epoch
			if ok = sub.trySend(ev); !ok {
				break
			}
		}
		if ok {
			ok = sub.trySend(Event{
				Kind:        EventCommit,
				Seq:         com.LastSeq,
				Epoch:       com.Epoch,
				Deltas:      d,
				Retractions: r,
			})
		}
		if !ok {
			g.dropLocked(sub)
			continue
		}
		deltas += d
		retractions += r
	}
	return deltas, retractions
}

// Stats is a point-in-time snapshot of the graph's live-ingest counters.
type Stats struct {
	Epoch   uint64 `json:"epoch"`
	LastSeq uint64 `json:"last_seq"`

	WALRetained  int    `json:"wal_retained"`
	WALTruncated uint64 `json:"wal_truncated"`

	// Durable-WAL state; all zero for a purely in-memory graph.
	WALDiskSegments    int    `json:"wal_disk_segments"`
	WALDiskBytes       int64  `json:"wal_disk_bytes"`
	WALFsyncs          uint64 `json:"wal_fsyncs"`
	WALCheckpoints     uint64 `json:"wal_checkpoints"`
	CheckpointFailures uint64 `json:"checkpoint_failures"`

	// OldestResumableSeq is the smallest from_seq a subscriber may resume
	// from: the resumable-from watermark (set for in-memory graphs too).
	OldestResumableSeq uint64 `json:"oldest_resumable_seq"`

	Batches       uint64 `json:"batches"`
	BatchesFailed uint64 `json:"batches_failed"`
	VerticesAdded uint64 `json:"vertices_added"`
	EdgesInserted uint64 `json:"edges_inserted"`
	EdgesDeleted  uint64 `json:"edges_deleted"`

	SnapshotsLive    int64  `json:"snapshots_live"`
	SnapshotsDrained uint64 `json:"snapshots_drained"`

	// GC pressure of retained (undrained) snapshots: how many bytes of
	// compressed store the unreleased epochs pin, which epoch has been
	// pinned the longest, and for how long. A rising age under mutation
	// load means some reader is sitting on an old snapshot. SnapshotBytes
	// is an upper bound: it adds up each pinned epoch's full store size,
	// so arrays that several pinned epochs share (every cluster no batch
	// between them wrote) are counted once per epoch, not once.
	SnapshotBytes     int64   `json:"snapshot_bytes"`
	OldestPinnedEpoch uint64  `json:"oldest_pinned_epoch"`
	OldestPinnedAge   float64 `json:"oldest_pinned_age_seconds"`

	Subscribers          int    `json:"subscribers"`
	SubscribersTotal     uint64 `json:"subscribers_total"`
	SubscribersDropped   uint64 `json:"subscribers_dropped"`
	SubscribersResumed   uint64 `json:"subscribers_resumed"`
	DeltasDelivered      uint64 `json:"deltas_delivered"`
	RetractionsDelivered uint64 `json:"retractions_delivered"`
}

// Stats returns the current counters.
func (g *Graph) Stats() Stats {
	retained, truncated := g.wal.size()
	g.mu.Lock()
	subs := len(g.subs)
	g.mu.Unlock()
	st := Stats{
		Epoch:                g.Epoch(),
		LastSeq:              g.wal.lastSeq(),
		WALRetained:          retained,
		WALTruncated:         truncated,
		CheckpointFailures:   g.stats.checkpointFailures.Load(),
		Batches:              g.stats.batches.Load(),
		BatchesFailed:        g.stats.batchesFailed.Load(),
		VerticesAdded:        g.stats.verticesAdded.Load(),
		EdgesInserted:        g.stats.edgesInserted.Load(),
		EdgesDeleted:         g.stats.edgesDeleted.Load(),
		SnapshotsLive:        g.stats.snapshotsLive.Load(),
		SnapshotsDrained:     g.stats.snapshotsDrained.Load(),
		Subscribers:          subs,
		SubscribersTotal:     g.stats.subsTotal.Load(),
		SubscribersDropped:   g.stats.subsDropped.Load(),
		SubscribersResumed:   g.stats.subsResumed.Load(),
		DeltasDelivered:      g.stats.deltasDelivered.Load(),
		RetractionsDelivered: g.stats.retractionsDelivered.Load(),
	}
	st.OldestResumableSeq = g.wal.oldestResumable()
	if g.dwal != nil {
		st.WALDiskSegments, st.WALDiskBytes, st.WALFsyncs, st.WALCheckpoints = g.dwal.diskStats()
	}
	now := time.Now()
	g.retMu.Lock()
	first := true
	for epoch, meta := range g.retained {
		st.SnapshotBytes += int64(meta.bytes)
		if first || epoch < st.OldestPinnedEpoch {
			st.OldestPinnedEpoch = epoch
			st.OldestPinnedAge = now.Sub(meta.created).Seconds()
			first = false
		}
	}
	g.retMu.Unlock()
	return st
}

// Tail returns the retained WAL records with Seq > after (debugging and
// catch-up inspection; retention may have truncated older entries).
func (g *Graph) Tail(after uint64) []Record { return g.wal.tail(after) }

// OldestResumableSeq is the smallest from_seq ResumeSubscribe accepts;
// anything older was truncated out of the retained window.
func (g *Graph) OldestResumableSeq() uint64 { return g.wal.oldestResumable() }

// Close stops mutations, closes every subscription, and syncs+closes the
// durable WAL so the final acknowledged batch is on disk. Published
// snapshots stay readable until their holders release them; Close is
// idempotent.
func (g *Graph) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	for _, sub := range g.subs {
		sub.closeLocked()
	}
	g.subs = map[uint64]*Subscription{}
	if g.dwal != nil {
		_ = g.dwal.close()
	}
}
