// Package delta implements continuous (incremental) subgraph matching on
// top of the CSCE engine: after an edge is inserted into the clustered
// data graph, NewEmbeddings enumerates exactly the embeddings that did not
// exist before — the delta a continuous query (Graphflow-style, Table III)
// reports to its subscribers.
//
// The classic decomposition is used: every new embedding must map at least
// one pattern edge onto the inserted data edge, so for each compatible
// pattern edge the engine runs with that edge pinned onto the insertion.
// Double counting (a homomorphism can map several pattern edges onto the
// same data edge) is removed by the standard exclusion rule: the run for
// pattern edge i rejects embeddings that also map an earlier-indexed
// compatible pattern edge onto the insertion.
package delta

import (
	"context"
	"fmt"

	"csce/internal/ccsr"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/plan"
)

// Edge identifies a data edge, as passed to Store.InsertEdge.
type Edge struct {
	Src, Dst graph.VertexID
	Label    graph.EdgeLabel
}

// Options bounds a delta enumeration.
type Options struct {
	// Variant selects the matching semantics.
	Variant graph.Variant
	// Limit stops after this many delta embeddings (0 = all).
	Limit uint64
	// Ctx, when non-nil, cancels the enumeration cooperatively (same
	// contract as exec.Options.Ctx): the live-ingest notifier runs delta
	// enumerations under the writer lock, and a cancelled mutation request
	// must stop them instead of holding the lock for the full search.
	Ctx context.Context
	// OnEmbedding receives each new embedding (indexed by pattern vertex).
	// Return false to stop.
	OnEmbedding func(mapping []graph.VertexID) bool
}

// NewEmbeddings counts (and optionally streams) the embeddings of p that
// use the just-inserted edge. The store must already contain the edge
// (call it after Store.InsertEdge); counts satisfy
//
//	count(after) = count(before) + NewEmbeddings(...).
//
// Only the monotone variants are supported: under vertex-induced
// semantics an insertion can also destroy existing embeddings (their
// vertex sets now induce an extra edge), so its delta is not a pure
// addition.
func NewEmbeddings(store *ccsr.Store, p *graph.Graph, inserted Edge, opts Options) (uint64, error) {
	return embeddingsUsing(store, p, inserted, opts)
}

// RemovedEmbeddings counts the embeddings that an upcoming edge deletion
// will destroy. Call it on the store *before* Store.DeleteEdge; counts
// satisfy count(after) = count(before) - RemovedEmbeddings(...).
func RemovedEmbeddings(store *ccsr.Store, p *graph.Graph, toDelete Edge, opts Options) (uint64, error) {
	return embeddingsUsing(store, p, toDelete, opts)
}

// embeddingsUsing enumerates the embeddings mapping at least one pattern
// edge onto the given data edge.
func embeddingsUsing(store *ccsr.Store, p *graph.Graph, inserted Edge, opts Options) (uint64, error) {
	if p.Directed() != store.Directed() {
		return 0, fmt.Errorf("delta: pattern directedness mismatch")
	}
	if opts.Variant == graph.VertexInduced {
		return 0, fmt.Errorf("delta: vertex-induced matching is not monotone under edge updates; recount instead")
	}

	// The candidate pins: every pattern edge whose labels match the
	// insertion, in both orientations for undirected graphs. They come
	// first because most mutations pin nothing on a given pattern, and
	// without a pin there is no embedding to find: planning and reading
	// the clusters (which compacts the pattern's dirty ones) are skipped.
	type pin struct{ a, b graph.VertexID } // f(a)=Src, f(b)=Dst
	var pins []pin
	srcL := store.VertexLabel(inserted.Src)
	dstL := store.VertexLabel(inserted.Dst)
	p.Edges(func(ua, ub graph.VertexID, l graph.EdgeLabel) {
		if l != inserted.Label {
			return
		}
		if p.Directed() {
			if p.Label(ua) == srcL && p.Label(ub) == dstL {
				pins = append(pins, pin{ua, ub})
			}
			return
		}
		if p.Label(ua) == srcL && p.Label(ub) == dstL {
			pins = append(pins, pin{ua, ub})
		}
		if ua != ub && p.Label(ub) == srcL && p.Label(ua) == dstL {
			pins = append(pins, pin{ub, ua})
		}
	})
	if len(pins) == 0 {
		return 0, nil
	}

	pl, err := plan.Optimize(p, store, opts.Variant, plan.ModeCSCE)
	if err != nil {
		return 0, fmt.Errorf("delta: %w", err)
	}
	view, err := store.ReadCSR(p, opts.Variant)
	if err != nil {
		return 0, fmt.Errorf("delta: %w", err)
	}
	// One program serves every pin: a pin is a run option.
	prog, err := exec.Compile(view, pl, nil)
	if err != nil {
		return 0, fmt.Errorf("delta: %w", err)
	}

	// mapsOnInsertion reports whether embedding m maps pattern pair
	// (a, b) onto the inserted edge (in the pin's orientation).
	mapsOnInsertion := func(m []graph.VertexID, pn pin) bool {
		return m[pn.a] == inserted.Src && m[pn.b] == inserted.Dst
	}

	var total uint64
	stopped := false
	for i, pn := range pins {
		if stopped {
			break
		}
		earlier := pins[:i]
		execOpts := exec.Options{
			Ctx:    opts.Ctx,
			Pinned: [][2]graph.VertexID{{pn.a, inserted.Src}, {pn.b, inserted.Dst}},
			OnEmbedding: func(m []graph.VertexID) bool {
				// Exclusion rule: skip embeddings already produced by an
				// earlier pin.
				for _, ep := range earlier {
					if mapsOnInsertion(m, ep) {
						return true
					}
				}
				total++
				if opts.OnEmbedding != nil && !opts.OnEmbedding(m) {
					stopped = true
					return false
				}
				if opts.Limit > 0 && total >= opts.Limit {
					stopped = true
					return false
				}
				return true
			},
		}
		if _, err := prog.Run(store, execOpts); err != nil {
			return total, fmt.Errorf("delta: pin %d: %w", i, err)
		}
	}
	return total, nil
}
