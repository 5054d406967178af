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
	if variant != graph.VertexInduced {
		return buildEdgeDAG(p, order)
	}
	n := len(order)
	d := NewDAG(p.NumVertices())
	for j := 1; j < n; j++ {
		uj := order[j]
		hasEarlierNeighbor := false
		for i := 0; i < j; i++ {
			if p.Adjacent(order[i], uj) {
				hasEarlierNeighbor = true
				break
			}
		}
		for i := 0; i < j; i++ {
			ui := order[i]
			if p.Adjacent(ui, uj) {
				d.AddEdge(int(ui), int(uj))
				continue
			}
			if variant != graph.VertexInduced || !hasEarlierNeighbor {
				continue
			}
			if store == nil || pairClustersNonEmpty(store, p.Label(ui), p.Label(uj)) {
				d.AddEdge(int(ui), int(uj))
			}
		}
	}
	return d
}

// buildEdgeDAG is BuildDAG for the variants whose only dependencies are
// pattern edges. It walks each vertex's adjacency once with an order
// position array, O(E log d) instead of O(n²) adjacency probes, and adds
// each vertex's earlier neighbors in ascending position, as the pairwise
// scan does, so the in and out lists come out in the same order.
func buildEdgeDAG(p *graph.Graph, order []graph.VertexID) *DAG {
	d := NewDAG(p.NumVertices())
	pos := make([]int, p.NumVertices())
	for v := range pos {
		pos[v] = len(order) // not in order: never earlier than anything
	}
	for i, u := range order {
		pos[u] = i
	}
	var earlier []int
	for j, uj := range order {
		earlier = earlier[:0]
		for _, nb := range p.Out(uj) {
			if pos[nb.To] < j {
				earlier = append(earlier, pos[nb.To])
			}
		}
		if p.Directed() {
			for _, nb := range p.In(uj) {
				if pos[nb.To] < j {
					earlier = append(earlier, pos[nb.To])
				}
			}
		}
		slices.Sort(earlier)
		for _, i := range earlier {
			d.AddEdge(int(order[i]), int(uj)) // repeats (parallel edges, arcs both ways) are ignored
		}
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
	// Kahn peeling from childless vertices, as in Algorithm 3.
	remaining := make([]int, d.n)
	var frontier []int
	for v := 0; v < d.n; v++ {
		remaining[v] = len(d.out[v])
		if remaining[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, c := range d.out[v] {
				desc.set(v, int(c))
				desc.or(v, int(c))
			}
			for _, p := range d.in[v] {
				remaining[p]--
				if remaining[p] == 0 {
					next = append(next, int(p))
				}
			}
		}
		frontier = next
	}
	return desc
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
