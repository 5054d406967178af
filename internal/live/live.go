// Package live makes registered data graphs writable while queries keep
// running: the mutation side of the serving daemon, built on ccsr
// incremental maintenance and the delta (Graphflow-style) continuous-query
// decomposition.
//
// Three pieces cooperate per graph:
//
//   - an append-only in-memory write-ahead log of typed mutations
//     (AddVertex / InsertEdge / DeleteEdge) with per-graph sequence
//     numbers, the audit and sequencing record of everything committed;
//
//   - a batcher: Mutate applies a whole batch to a private ccsr.Store
//     clone under the writer lock, then publishes the result with one
//     atomic epoch/refcounted snapshot swap. In-flight queries finish on
//     the snapshot they pinned; new queries see the new epoch; a retired
//     snapshot is dropped when its refcount drains. Readers never take the
//     writer lock, so mutation traffic cannot block matching;
//
//   - continuous-query subscriptions: a client registers a pattern and
//     receives the delta embeddings (computed by delta.NewEmbeddings at
//     each insertion's intermediate state, so the exclusion rule holds
//     across a batch) as insertions commit. Only the monotone variants are
//     accepted — under vertex-induced semantics an insertion can destroy
//     existing embeddings, so its delta is not a pure addition.
//
// Commit protocol: a batch is atomic. It applies speculatively to the
// private writer clone; on any invalid mutation (or caller cancellation
// mid-delta) the writer is rebuilt from the current published snapshot and
// nothing is logged or published. On success the batch is appended to the
// WAL — first to the disk log when Options.Durability enables one, then to
// the in-memory tail — the swap publishes the new epoch, and subscribers
// are notified. The swap is the commit point, so the log never contains
// aborted mutations, and a crash before the disk append returns means the
// batch was never acknowledged.
//
// Durability: with Options.Durability.Dir set, every committed record also
// lands in segment files under that directory (CRC-checksummed, fsynced
// per the configured policy) and Open replays checkpoint + segments at
// startup, recovering the exact committed seq and epoch; see dwal.go for
// the format, the three watermarks over the log, and the crash semantics.
// Subscribers that reconnect resume from any retained seq with
// ResumeSubscribe: replayed deltas (and retraction events for deletions)
// arrive gapless before the stream hands over to live commits. The resume
// window is a suffix of that same log and the checkpoint is taken at the
// window's oldest seq, so a from_seq that was resumable before a restart
// replays the identical events after it.
package live

import (
	"errors"
	"fmt"

	"csce/internal/graph"
)

// Op is the type of one mutation.
type Op uint8

const (
	// OpAddVertex appends an isolated vertex with VertexLabel.
	OpAddVertex Op = iota
	// OpInsertEdge adds the edge (Src, Dst, EdgeLabel).
	OpInsertEdge
	// OpDeleteEdge removes the edge (Src, Dst, EdgeLabel).
	OpDeleteEdge
)

// String renders the op as its wire name.
func (o Op) String() string {
	switch o {
	case OpAddVertex:
		return "add_vertex"
	case OpInsertEdge:
		return "insert_edge"
	case OpDeleteEdge:
		return "delete_edge"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Mutation is one typed entry of a batch. Src/Dst/EdgeLabel apply to the
// edge ops; VertexLabel to OpAddVertex.
type Mutation struct {
	Op          Op
	Src, Dst    graph.VertexID
	EdgeLabel   graph.EdgeLabel
	VertexLabel graph.Label
	// LabelName is the symbolic name behind EdgeLabel/VertexLabel, when
	// the caller interned one (LabelNamed true). Interned ids depend on
	// arrival order, so the durable WAL persists the name and replay
	// re-interns it — that keeps labels stable across restarts even for
	// labels first seen at runtime. LabelNamed false means "trust the
	// raw id" (programmatic callers); it is distinct from an interned
	// empty name, which is a valid label of its own.
	LabelName  string
	LabelNamed bool
}

// ErrVertexInduced is returned by Subscribe for the vertex-induced
// variant: an insertion can destroy existing vertex-induced embeddings
// (their vertex sets now induce an extra edge), so no pure delta stream
// exists — recount instead. This mirrors delta.NewEmbeddings's contract.
var ErrVertexInduced = errors.New(
	"live: vertex-induced matching is not monotone under edge insertions; subscriptions support edge-induced and homomorphic patterns only")

// ErrClosed is returned by Mutate and Subscribe after Close.
var ErrClosed = errors.New("live: graph is closed")

// ErrSeqTruncated is returned by ResumeSubscribe when the requested
// position predates the oldest resumable record: retention already
// truncated that part of history, so a gapless replay is impossible. The
// HTTP layer maps it to 410 Gone; the client must recount from a fresh
// snapshot instead of trusting its running sum.
var ErrSeqTruncated = errors.New("live: requested seq predates retained history")

// ErrSeqFuture is returned by ResumeSubscribe when from_seq is beyond the
// last committed sequence number — the client is asking to resume from a
// position that never existed.
var ErrSeqFuture = errors.New("live: requested seq is beyond the committed log")

// Options tunes one live graph; the zero value takes defaults.
type Options struct {
	// SubscriberBuffer is the per-subscription event channel capacity; a
	// subscriber that falls this many events behind is dropped rather than
	// allowed to block commits (default 256).
	SubscriberBuffer int
	// WALRetention bounds the in-memory log to the most recent entries;
	// sequence numbers keep increasing past truncation (default 4096).
	// It is also the resume horizon: ResumeSubscribe can replay from any
	// seq still inside this window.
	WALRetention int
	// Durability configures the disk-backed WAL; the zero value (empty
	// Dir) keeps the graph purely in-memory.
	Durability Durability
	// Observer receives durations of WAL appends, fsyncs, replays, and
	// checkpoints for external histogramming. All hooks optional.
	Observer Observer
}

func (o Options) withDefaults() Options {
	if o.SubscriberBuffer <= 0 {
		o.SubscriberBuffer = 256
	}
	if o.WALRetention <= 0 {
		o.WALRetention = 4096
	}
	return o
}
