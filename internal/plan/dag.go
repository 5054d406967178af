// Package plan turns a pattern graph into an optimized matching order
// (Sections V and VI of the paper): a Greatest-Constraint-First initial
// order with CCSR tie-breaking, the candidate-dependency DAG H
// (Algorithm 2), descendant sizes (Algorithm 3), and the
// Largest-Descendant-Size-First topological reordering (Algorithm 4),
// together with NEC classes and the SCE occurrence statistics of Fig. 12.
package plan

import (
	"fmt"
	"math/bits"
	"slices"

	"csce/internal/ccsr"
	"csce/internal/graph"
)

// DAG is the candidate-dependency graph H over pattern vertices: an edge
// u -> w means the candidates of w depend on the mapping of u. H is acyclic
// because every edge points from an earlier to a later vertex of the
// matching order that defined it.
type DAG struct {
	n   int
	out [][]int32
	in  [][]int32
	adj bitMatrix // adjacency for O(1) HasEdge
}

// NewDAG returns an empty dependency DAG over n pattern vertices.
func NewDAG(n int) *DAG {
	return &DAG{
		n:   n,
		out: make([][]int32, n),
		in:  make([][]int32, n),
		adj: newBitMatrix(n),
	}
}

// N returns the number of vertices.
func (d *DAG) N() int { return d.n }

// AddEdge inserts the dependency u -> w; duplicates are ignored.
func (d *DAG) AddEdge(u, w int) {
	if d.adj.get(u, w) {
		return
	}
	d.adj.set(u, w)
	d.out[u] = append(d.out[u], int32(w))
	d.in[w] = append(d.in[w], int32(u))
}

// HasEdge reports whether the dependency u -> w exists.
func (d *DAG) HasEdge(u, w int) bool { return d.adj.get(u, w) }

// Out returns the direct dependents (children) of u.
func (d *DAG) Out(u int) []int32 { return d.out[u] }

// In returns the direct dependencies (parents) of u.
func (d *DAG) In(u int) []int32 { return d.in[u] }

// NumEdges returns |E_H|.
func (d *DAG) NumEdges() int {
	total := 0
	for _, o := range d.out {
		total += len(o)
	}
	return total
}

// BuildDAG implements Algorithm 2: given clusters, a pattern, its matching
// order, and the SM variant, it returns the candidate-dependency DAG H.
//
// For every pattern edge between order positions i < j it adds the
// dependency Φ[i] -> Φ[j]. For the vertex-induced variant, a non-adjacent
// pair additionally becomes a dependency when data edges could connect
// their candidates — i.e. when some (Φ[i],Φ[j])*-cluster is non-empty
// (Algorithm 2 line 8), since the negation filter then ties Φ[j]'s
// candidates to Φ[i]'s mapping.
//
// Deviation from the paper's pseudo-code, documented in DESIGN.md: the
// printed line 7 requires a pattern neighbor of Φ[j] before position i; we
// require one before position j (trivially true in a connected order).
// Skipping the negation dependency when Φ[i] precedes Φ[j]'s first
// neighbor would declare candidate sets independent that the negation
// filter in fact couples, making SCE reuse unsound.
//
// store may be nil, in which case every non-adjacent pair is conservatively
// treated as dependent (no cluster emptiness information).
func BuildDAG(store *ccsr.Store, p *graph.Graph, order []graph.VertexID, variant graph.Variant) *DAG {
	lp := newLabelPairs(p, store)
	return buildDAG(p, order, variant, &lp)
}

func buildDAG(p *graph.Graph, order []graph.VertexID, variant graph.Variant, lp *labelPairs) *DAG {
	if variant != graph.VertexInduced {
		return buildEdgeDAG(p, order)
	}
	return buildVertexDAG(p, order, lp)
}

// buildVertexDAG is BuildDAG for the vertex-induced variant. It probes
// every ordered pair for adjacency, O(n²); lp answers the store once per
// distinct label pair of the non-adjacent ones.
func buildVertexDAG(p *graph.Graph, order []graph.VertexID, lp *labelPairs) *DAG {
	start := make([]int32, len(order)+1)
	var earlier []int32
	for j := 1; j < len(order); j++ {
		uj := order[j]
		hasEarlierNeighbor := false
		for i := 0; i < j; i++ {
			if p.Adjacent(order[i], uj) {
				hasEarlierNeighbor = true
				break
			}
		}
		for i := 0; i < j; i++ {
			if p.Adjacent(order[i], uj) || (hasEarlierNeighbor && lp.nonEmpty(order[i], uj)) {
				earlier = append(earlier, int32(i))
			}
		}
		start[j+1] = int32(len(earlier))
	}
	return dagFromEarlier(p.NumVertices(), order, earlier, start)
}

// buildEdgeDAG is BuildDAG for the variants whose only dependencies are
// pattern edges. It walks each vertex's adjacency once with an order
// position array, O(E log d) instead of O(n²) adjacency probes.
func buildEdgeDAG(p *graph.Graph, order []graph.VertexID) *DAG {
	n := p.NumVertices()
	buf := make([]int32, n+len(order)+1)
	pos, start := buf[:n], buf[n:]
	for v := range pos {
		pos[v] = int32(len(order)) // not in order: never earlier than anything
	}
	for i, u := range order {
		pos[u] = int32(i)
	}
	bound := 0
	for _, u := range order {
		bound += len(p.Out(u))
		if p.Directed() {
			bound += len(p.In(u))
		}
	}
	earlier := make([]int32, 0, bound)
	for j, uj := range order {
		s := len(earlier)
		for _, nb := range p.Out(uj) {
			if pos[nb.To] < int32(j) {
				earlier = append(earlier, pos[nb.To])
			}
		}
		if p.Directed() {
			for _, nb := range p.In(uj) {
				if pos[nb.To] < int32(j) {
					earlier = append(earlier, pos[nb.To])
				}
			}
		}
		slices.Sort(earlier[s:])
		earlier = earlier[:s+len(slices.Compact(earlier[s:]))] // parallel edges, arcs both ways
		start[j+1] = int32(len(earlier))
	}
	return dagFromEarlier(n, order, earlier, start)
}

// dagFromEarlier returns H over n vertices from each order position's
// dependencies: earlier[start[j]:start[j+1]] are the positions i < j,
// ascending and distinct, with an edge Φ[i] -> Φ[j]. The lists come out
// as a pairwise scan over the order would add the edges, in (j, i) order.
// earlier is rewritten in place into the in-lists, and the out-lists are
// counted first and carved from one array.
func dagFromEarlier(n int, order []graph.VertexID, earlier, start []int32) *DAG {
	d := NewDAG(n)
	outdeg := make([]int32, n)
	for _, i := range earlier {
		outdeg[order[i]]++
	}
	outs := make([]int32, len(earlier))
	for v := range d.out {
		d.out[v], outs = outs[:0:outdeg[v]], outs[outdeg[v]:]
	}
	for j, uj := range order {
		in := earlier[start[j]:start[j+1]:start[j+1]]
		for k, i := range in {
			u := order[i]
			in[k] = int32(u)
			d.adj.set(int(u), int(uj))
			d.out[u] = append(d.out[u], int32(uj))
		}
		d.in[uj] = in
	}
	return d
}

func pairClustersNonEmpty(store *ccsr.Store, a, b graph.Label) bool {
	for _, k := range store.PairClusterKeys(a, b) {
		if store.ClusterSize(k) > 0 {
			return true
		}
	}
	return false
}

// labelPairs answers pairClustersNonEmpty once per distinct pair of the
// pattern's vertex labels, however many vertex pairs ask: the
// vertex-induced negation scan and the SCE statistics of one Optimize
// share it. Labels are numbered densely (class) by sorting the distinct
// ones, so the memo is an array and no map is built per plan. The SCE
// statistics ask only about a label with itself; the k×k memo of mixed
// pairs is allocated by the first question the negation scan asks.
type labelPairs struct {
	store *ccsr.Store
	p     *graph.Graph
	class []int32 // class[v] is the dense index of v's label
	k     int
	// Answers: 0 not yet asked, 1 some (a,b)*-cluster is non-empty, 2 none is.
	same  []int8 // same[a] for the pair (a, a)
	mixed []int8 // mixed[a*k+b] for a < b
}

func newLabelPairs(p *graph.Graph, store *ccsr.Store) labelPairs {
	n := p.NumVertices()
	buf := make([]int32, 2*n)
	distinct, class := buf[:n], buf[n:]
	for v, l := range p.Labels() {
		distinct[v] = int32(l)
	}
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	for v, l := range p.Labels() {
		i, _ := slices.BinarySearch(distinct, int32(l))
		class[v] = int32(i)
	}
	lp := labelPairs{store: store, p: p, class: class, k: len(distinct)}
	if store != nil {
		lp.same = make([]int8, lp.k)
	}
	return lp
}

// nonEmpty reports whether data edges can connect candidates of u and w:
// whether some cluster between their labels is non-empty. Without a store
// every pair conservatively can.
func (lp *labelPairs) nonEmpty(u, w graph.VertexID) bool {
	if lp.store == nil {
		return true
	}
	a, b := int(lp.class[u]), int(lp.class[w])
	memo, i := lp.same, a
	if a != b {
		if lp.mixed == nil {
			lp.mixed = make([]int8, lp.k*lp.k)
		}
		memo, i = lp.mixed, min(a, b)*lp.k+max(a, b)
	}
	if memo[i] == 0 {
		memo[i] = 2
		if pairClustersNonEmpty(lp.store, lp.p.Label(u), lp.p.Label(w)) {
			memo[i] = 1
		}
	}
	return memo[i] == 1
}

// DescendantSizes implements Algorithm 3: for every pattern vertex, the
// number of distinct direct and indirect children in H. Descendant sets are
// shared between parents, so they are computed once bottom-up (reverse
// topological order) as bitsets.
func (d *DAG) DescendantSizes() []int {
	desc := d.descendantSets()
	sizes := make([]int, d.n)
	for v := range sizes {
		sizes[v] = desc.popcount(v)
	}
	return sizes
}

// descendantSets returns, for each vertex, the bitset of its descendants.
func (d *DAG) descendantSets() bitMatrix {
	desc := newBitMatrix(d.n)
	// Kahn peeling from childless vertices, as in Algorithm 3: a vertex
	// is queued once all its children are merged.
	buf := make([]int32, 2*d.n)
	remaining, queue := buf[:d.n], buf[d.n:d.n]
	for v := 0; v < d.n; v++ {
		remaining[v] = int32(len(d.out[v]))
		if remaining[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		for _, c := range d.out[v] {
			desc.set(v, int(c))
			desc.or(v, int(c))
		}
		for _, p := range d.in[v] {
			remaining[p]--
			if remaining[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	return desc
}

// ancestorSets returns, for each vertex, the bitset of its ancestors. It
// merges in-lists in the given order, which must be a topological order
// of d so that every parent's set is complete before its children read it.
func (d *DAG) ancestorSets(order []graph.VertexID) bitMatrix {
	anc := newBitMatrix(d.n)
	for _, v := range order {
		for _, p := range d.in[v] {
			anc.set(int(v), int(p))
			anc.or(int(v), int(p))
		}
	}
	return anc
}

// IsTopologicalOrder reports whether order visits every H-parent before its
// children; both Φ (the GCF order that defined H) and Φ* (the LDSF order)
// must satisfy it.
func (d *DAG) IsTopologicalOrder(order []graph.VertexID) bool {
	if len(order) != d.n {
		return false
	}
	pos := make([]int, d.n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if pos[v] != -1 {
			return false
		}
		pos[v] = i
	}
	for u := 0; u < d.n; u++ {
		for _, w := range d.out[u] {
			if pos[u] >= pos[w] {
				return false
			}
		}
	}
	return true
}

// String renders H for debugging.
func (d *DAG) String() string {
	s := fmt.Sprintf("DAG(%d vertices, %d edges)", d.n, d.NumEdges())
	return s
}

// bitMatrix is an n x n bit matrix used for adjacency and descendant sets.
type bitMatrix struct {
	n     int
	words int
	rows  []uint64
}

func newBitMatrix(n int) bitMatrix {
	words := (n + 63) / 64
	return bitMatrix{n: n, words: words, rows: make([]uint64, n*words)}
}

func (m bitMatrix) row(i int) []uint64 { return m.rows[i*m.words : (i+1)*m.words] }

func (m bitMatrix) set(i, j int) { m.row(i)[j/64] |= 1 << (uint(j) % 64) }

func (m bitMatrix) get(i, j int) bool { return m.row(i)[j/64]&(1<<(uint(j)%64)) != 0 }

// or merges row j into row i.
func (m bitMatrix) or(i, j int) {
	ri, rj := m.row(i), m.row(j)
	for w := range ri {
		ri[w] |= rj[w]
	}
}

func (m bitMatrix) popcount(i int) int {
	total := 0
	for _, w := range m.row(i) {
		total += bits.OnesCount64(w)
	}
	return total
}
