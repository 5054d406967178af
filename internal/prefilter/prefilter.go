// Package prefilter answers "can this pattern possibly match this graph?"
// in O(pattern) time, before any plan is built, any snapshot pinned, or any
// scatter fanned out. It keeps a per-graph Signature of four nested
// summaries — neighboring-label adjacency, per-cluster edge counts,
// per-label degree histograms, and WL-1 (one-round color refinement)
// within-cluster degree histograms — each a strictly coarser view of the
// graph than the executor's, so every check is conservative: a Reject is a
// proof of emptiness, an Admit promises nothing (l2Match's label-pair /
// neighboring-label indexes, plus the degree- and WL-signature pruning the
// SynKit line of work applies per host, lifted to whole-graph admission).
//
// Signatures are exact under live ingest: internal/live updates them
// inside the WAL-commit critical section via Batch, so a published
// signature always describes a published epoch, and live.Open rebuilds
// them from the recovered store so crash recovery cannot skew a count.
//
// Soundness under sharding: internal/shard gives every shard the complete
// adjacency of the vertices it owns (boundary edges are replicated to both
// owners), so for any data vertex some shard sees its full degree. Union
// semantics over per-shard signatures — existence is any-shard existence,
// availability counts are cross-shard sums — can therefore only overcount
// (a boundary edge is counted by two shards), which is the false-admit
// direction. A Reject from CheckMany is still a proof of emptiness.
package prefilter

import (
	"fmt"
	"sync"

	"csce/internal/ccsr"
	"csce/internal/graph"
)

// Filter names one of the cascade's pre-filters, coarsest first. The names
// are wire-visible: they appear in `rejected_by` summary fields, trace
// attributes, and `csce_prefilter_*` metric labels.
type Filter string

const (
	// FilterNbrLabel rejects a pattern edge between vertex labels that are
	// never adjacent in the data graph (any edge label, any direction).
	FilterNbrLabel Filter = "nbr-label"
	// FilterLabelPair refines nbr-label with the edge label and direction:
	// the pattern edge's exact cluster must exist, and for injective
	// variants the cluster must hold at least as many data edges as the
	// pattern puts in it.
	FilterLabelPair Filter = "label-pair"
	// FilterDegree checks per-label degree-histogram containment: the i-th
	// most demanding pattern vertex of a label needs at least i data
	// vertices of that label with at least its degree. Its k=0 case is the
	// label-frequency check, so it also rejects missing labels.
	FilterDegree Filter = "degree"
	// FilterWL1 refines degree by one round of color refinement: degrees
	// are split per (cluster, side), i.e. per neighbor label x edge label x
	// direction, and containment is checked per split histogram.
	FilterWL1 Filter = "wl1"
)

// Filters returns the cascade in evaluation order (coarsest first).
func Filters() []Filter {
	return []Filter{FilterNbrLabel, FilterLabelPair, FilterDegree, FilterWL1}
}

// Decision is the outcome of a Check. It is plain-old-data so the hot path
// returns it by value without allocating; the human-readable reason is
// rendered lazily by Reason, off the hot path, only for rejected queries.
type Decision struct {
	// Admit is true when no filter could prove the pattern unmatchable.
	Admit bool
	// Filter names the rejecting filter; empty on admit.
	Filter Filter
	// Checked is how many filters of the cascade were evaluated: the
	// rejecting filter's 1-based position, or the full cascade length on
	// admit (WL-1 is skipped for homomorphic patterns, where it degenerates
	// to the label-pair check).
	Checked uint8

	// Reject context: the offending label pair / cluster and the
	// availability shortfall (Have < Needed).
	SrcLabel  graph.Label
	DstLabel  graph.Label
	EdgeLabel graph.EdgeLabel
	MinCount  uint32 // degree / WL-1: the per-vertex count demanded
	Needed    uint32
	Have      uint64
}

// Reason renders the machine-parsable shortfall behind a rejection, using
// names (which may be nil) to print label names instead of interned IDs.
func (d Decision) Reason(names *graph.LabelTable) string {
	vl := func(l graph.Label) string {
		if names != nil {
			return names.VertexName(l)
		}
		return fmt.Sprintf("L%d", l)
	}
	el := func(l graph.EdgeLabel) string {
		if names != nil && l != 0 {
			return names.EdgeName(l)
		}
		if l == 0 {
			return "NULL"
		}
		return fmt.Sprintf("e%d", l)
	}
	switch d.Filter {
	case FilterNbrLabel:
		return fmt.Sprintf("no edge between labels %s and %s exists in the graph", vl(d.SrcLabel), vl(d.DstLabel))
	case FilterLabelPair:
		return fmt.Sprintf("pattern needs %d (%s,%s,%s) edges; graph has %d",
			d.Needed, vl(d.SrcLabel), vl(d.DstLabel), el(d.EdgeLabel), d.Have)
	case FilterDegree:
		if d.MinCount == 0 {
			return fmt.Sprintf("pattern needs %d vertices with label %s; graph has %d", d.Needed, vl(d.SrcLabel), d.Have)
		}
		return fmt.Sprintf("pattern needs %d vertices with label %s and degree >= %d; graph has at most %d",
			d.Needed, vl(d.SrcLabel), d.MinCount, d.Have)
	case FilterWL1:
		return fmt.Sprintf("pattern needs %d label-%s vertices with >= %d incident (%s,%s,%s) edges; graph has at most %d",
			d.Needed, vl(d.SrcLabel), d.MinCount, vl(d.SrcLabel), vl(d.DstLabel), el(d.EdgeLabel), d.Have)
	default:
		return "admitted"
	}
}

// histBuckets covers bits.Len32 of any uint32 count (0..32) with slack.
const histBuckets = 34

// hist is a log-bucketed counter histogram: bucket i holds the number of
// tracked values v with bits.Len32(v) == i (0, 1, 2-3, 4-7, ...). Because
// v >= k implies bucket(v) >= bucket(k), summing buckets >= bucket(k)
// upper-bounds the number of values >= k — the conservative direction
// (false admits only, never false rejects).
type hist struct {
	b [histBuckets]uint32
}

//csce:hotpath
func histBucket(v uint32) int {
	// bits.Len32 by halving; inlined shape keeps the probe loop flat.
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}

func (h *hist) add(v uint32)    { h.b[histBucket(v)]++ }
func (h *hist) remove(v uint32) { h.b[histBucket(v)]-- }

func (h *hist) move(old, new uint32) {
	ob, nb := histBucket(old), histBucket(new)
	if ob == nb {
		return
	}
	h.b[ob]--
	h.b[nb]++
}

// countAtLeast returns an upper bound on how many tracked values are >= k.
//
//csce:hotpath
func (h *hist) countAtLeast(k uint32) uint64 {
	var sum uint64
	for i := histBucket(k); i < histBuckets; i++ {
		sum += uint64(h.b[i])
	}
	return sum
}

// pairKey is an unordered vertex-label pair (the neighboring-label index
// ignores edge labels and direction).
type pairKey struct{ lo, hi graph.Label }

func newPairKey(a, b graph.Label) pairKey {
	if b < a {
		a, b = b, a
	}
	return pairKey{a, b}
}

// wlKey is one side of one edge cluster: the unit of WL-1 color splitting.
// Side 0 is the cluster's Src endpoint, side 1 its Dst endpoint; undirected
// same-label clusters use side 0 only.
type wlKey struct {
	key  ccsr.Key
	side uint8
}

// sideLabel returns the vertex label living on the key's side.
func (w wlKey) sideLabel() graph.Label {
	if w.side == 0 {
		return w.key.Src
	}
	return w.key.Dst
}

// wlEntry tracks, for one (cluster, side), each vertex's count of incident
// cluster edges plus the log-bucketed histogram of those counts. Vertices
// with count zero are untracked (WL-1 probes always demand count >= 1).
type wlEntry struct {
	counts map[graph.VertexID]uint32
	h      hist
}

// Signature is the incrementally-maintained admission summary of one
// store. All counts are exact for the store state they were built from /
// maintained against; Check's conservatism lives entirely in the
// log-bucketed histograms and in cross-shard union sums.
//
// Concurrency: Batch takes the write lock for a whole mutation batch, so
// Check (read lock, per signature) only ever observes committed batch
// boundaries — the same states the snapshot swap publishes.
type Signature struct {
	mu       sync.RWMutex
	directed bool

	labels     []graph.Label // labels[v]; vertices are never relabeled or deleted
	deg        []uint32      // deg[v] = incident edges (out+in for directed)
	labelCount map[graph.Label]uint32
	pair       map[pairKey]uint32  // edges per unordered endpoint-label pair
	cluster    map[ccsr.Key]uint32 // edges per exact cluster
	degHist    map[graph.Label]*hist
	wl         map[wlKey]*wlEntry

	self [1]*Signature // lets Check reuse the multi-signature path allocation-free
}

// New returns an empty signature for a graph of the given directedness.
func New(directed bool) *Signature {
	s := &Signature{
		directed:   directed,
		labelCount: make(map[graph.Label]uint32),
		pair:       make(map[pairKey]uint32),
		cluster:    make(map[ccsr.Key]uint32),
		degHist:    make(map[graph.Label]*hist),
		wl:         make(map[wlKey]*wlEntry),
	}
	s.self[0] = s
	return s
}

// Build constructs the signature of an existing store by one pass over its
// vertices and one over its clusters.
func Build(st *ccsr.Store) *Signature {
	s := New(st.Directed())
	b := BatchWriter{s: s}
	n := st.NumVertices()
	for v := 0; v < n; v++ {
		b.AddVertex(st.VertexLabel(graph.VertexID(v)))
	}
	st.EdgesAll(func(src, dst graph.VertexID, el graph.EdgeLabel) {
		b.InsertEdge(src, dst, el)
	})
	return s
}

// Batch applies a group of mutations atomically with respect to Check:
// the write lock spans the whole batch, so no reader can observe (and
// falsely reject on) a mid-batch state such as a delete that is about to
// be re-inserted.
func (s *Signature) Batch(fn func(b *BatchWriter)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(&BatchWriter{s: s})
}

// BatchWriter applies individual mutations inside a Batch. Calls must
// mirror, in order, mutations the store has accepted: the store has
// already rejected duplicate edges, missing deletes, and self-loops, so
// every call moves each count by exactly one.
type BatchWriter struct {
	s *Signature
}

// AddVertex appends a vertex with label l; IDs are dense and assigned in
// call order, matching the store's.
func (b *BatchWriter) AddVertex(l graph.Label) {
	s := b.s
	s.labels = append(s.labels, l)
	s.deg = append(s.deg, 0)
	s.labelCount[l]++
	h := s.degHist[l]
	if h == nil {
		h = &hist{}
		s.degHist[l] = h
	}
	h.add(0)
}

// InsertEdge records the edge src->dst (orientation is ignored for
// undirected signatures) with edge label el.
func (b *BatchWriter) InsertEdge(src, dst graph.VertexID, el graph.EdgeLabel) {
	b.apply(src, dst, el, +1)
}

// DeleteEdge removes a previously-recorded edge.
func (b *BatchWriter) DeleteEdge(src, dst graph.VertexID, el graph.EdgeLabel) {
	b.apply(src, dst, el, -1)
}

func (b *BatchWriter) apply(src, dst graph.VertexID, el graph.EdgeLabel, delta int32) {
	s := b.s
	ls, ld := s.labels[src], s.labels[dst]
	k := ccsr.NewKey(ls, ld, el, s.directed)

	bump := func(m map[pairKey]uint32, pk pairKey) {
		m[pk] = uint32(int32(m[pk]) + delta)
		if m[pk] == 0 {
			delete(m, pk)
		}
	}
	bump(s.pair, newPairKey(ls, ld))
	s.cluster[k] = uint32(int32(s.cluster[k]) + delta)
	if s.cluster[k] == 0 {
		delete(s.cluster, k)
	}

	for _, v := range [2]graph.VertexID{src, dst} {
		old := s.deg[v]
		s.deg[v] = uint32(int32(old) + delta)
		s.degHist[s.labels[v]].move(old, s.deg[v])
	}

	// WL-1 sides. Directed: src is on side 0, dst on side 1. Undirected:
	// sides follow the canonicalized key's labels; same-label clusters use
	// a single side.
	b.wlBump(wlKey{k, b.sideOf(k, ls, true)}, src, delta)
	b.wlBump(wlKey{k, b.sideOf(k, ld, false)}, dst, delta)
}

func (b *BatchWriter) sideOf(k ccsr.Key, l graph.Label, isSrc bool) uint8 {
	if b.s.directed {
		if isSrc {
			return 0
		}
		return 1
	}
	if k.Src == k.Dst || l == k.Src {
		return 0
	}
	return 1
}

func (b *BatchWriter) wlBump(wk wlKey, v graph.VertexID, delta int32) {
	s := b.s
	e := s.wl[wk]
	if e == nil {
		e = &wlEntry{counts: make(map[graph.VertexID]uint32)}
		s.wl[wk] = e
	}
	old := e.counts[v]
	nv := uint32(int32(old) + delta)
	switch {
	case old == 0:
		e.counts[v] = nv
		e.h.add(nv)
	case nv == 0:
		delete(e.counts, v)
		e.h.remove(old)
		if len(e.counts) == 0 {
			delete(s.wl, wk) // a rebuild would not materialize an empty entry
		}
	default:
		e.counts[v] = nv
		e.h.move(old, nv)
	}
}

// NumVertices returns the number of vertices the signature has seen.
func (s *Signature) NumVertices() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.labels)
}

// Check runs the cascade for pattern p under the given matching variant
// against this signature alone.
//
//csce:hotpath
func (s *Signature) Check(p *graph.Graph, variant graph.Variant) Decision {
	return CheckMany(s.self[:], p, variant)
}
