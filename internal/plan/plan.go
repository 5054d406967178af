package plan

import (
	"fmt"
	"strings"

	"csce/internal/ccsr"
	"csce/internal/graph"
)

// Mode selects which of the paper's optimization stages run; the Fig. 13
// plan-quality ablation compares them.
type Mode uint8

const (
	// ModeCSCE is the full pipeline: GCF with cluster tie-breaking, then
	// LDSF re-ordering over the dependency DAG. The paper's Φ*.
	ModeCSCE Mode = iota
	// ModeRI uses only the RI heuristic rules (no data-graph tie-breaking,
	// no LDSF): the plain GCF baseline.
	ModeRI
	// ModeRICluster adds the CCSR tie-breaking to RI but skips LDSF.
	ModeRICluster
	// ModeRM uses the RapidMatch ordering heuristic.
	ModeRM
	// ModeCostBased replaces GCF with the cluster-statistics cost model of
	// costBasedOrder, then applies the LDSF refinement — the alternative
	// heuristic the paper's conclusion suggests exploring.
	ModeCostBased
)

// String names the mode as in Fig. 13.
func (m Mode) String() string {
	switch m {
	case ModeCSCE:
		return "CSCE"
	case ModeRI:
		return "RI"
	case ModeRICluster:
		return "RI+Cluster"
	case ModeRM:
		return "RM"
	case ModeCostBased:
		return "CostBased"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Plan is an optimized matching order together with everything the
// executor needs: the dependency DAG H, per-vertex descendant sizes, NEC
// classes, and SCE occurrence statistics.
type Plan struct {
	Pattern *graph.Graph
	Variant graph.Variant
	Mode    Mode

	// Order is Φ*: pattern vertex IDs in matching order.
	Order []graph.VertexID
	// DAG is the candidate-dependency graph H built from Order.
	DAG *DAG
	// DescendantSizes[v] is |descendants(v)| in H, per Algorithm 3.
	DescendantSizes []int
	// NECClasses groups neighborhood-equivalent pattern vertices.
	NECClasses [][]graph.VertexID
	// SCE summarizes sequential candidate equivalence occurrence (Fig. 12).
	SCE SCEStats
}

// SCEStats quantifies how often sequential candidate equivalence occurs in
// a plan, the Fig. 12 measurements.
type SCEStats struct {
	// SCEVertices counts pattern vertices with at least one earlier,
	// path-independent vertex in Φ*.
	SCEVertices int
	// ClusterSCEVertices counts SCE vertices whose equivalence additionally
	// satisfies injectivity through label disjointness or empty
	// (ui,uj)*-clusters (the "Cluster" sub-bars; meaningless for
	// homomorphism, which needs no injectivity).
	ClusterSCEVertices int
	// IndependentPairs counts ordered pairs (i<j) with no H-path.
	IndependentPairs int
	// TotalPairs is n*(n-1)/2.
	TotalPairs int
	// PatternVertices is n.
	PatternVertices int
}

// Ratio returns SCEVertices / n, the bar height of Fig. 12.
func (s SCEStats) Ratio() float64 {
	if s.PatternVertices == 0 {
		return 0
	}
	return float64(s.SCEVertices) / float64(s.PatternVertices)
}

// ClusterRatio returns the cluster sub-bar share of the SCE bar.
func (s SCEStats) ClusterRatio() float64 {
	if s.SCEVertices == 0 {
		return 0
	}
	return float64(s.ClusterSCEVertices) / float64(s.SCEVertices)
}

// Optimize runs the paper's plan-optimization pipeline (the orange stage of
// Fig. 2) for pattern p against the clustered data graph: GCF initial
// order, dependency DAG (Algorithm 2), descendant sizes (Algorithm 3), and
// LDSF re-ordering (Algorithm 4). mode selects ablations for Fig. 13.
//
// store may be nil only for modes that do not consult the data graph; the
// executor still requires a store-backed view at run time.
func Optimize(p *graph.Graph, store *ccsr.Store, variant graph.Variant, mode Mode) (*Plan, error) {
	if p.NumVertices() == 0 {
		return nil, fmt.Errorf("plan: empty pattern")
	}
	if !graph.IsConnected(p) {
		return nil, fmt.Errorf("plan: pattern must be connected")
	}

	// es sizes every pattern edge once for GCF, LDSF and the cost model.
	var es *edgeSizes
	var initial []graph.VertexID
	switch mode {
	case ModeRM:
		initial = RMOrder(p)
	case ModeRI:
		initial = gcf(newEdgeSizes(p, nil))
	case ModeCostBased:
		if store == nil {
			return nil, fmt.Errorf("plan: cost-based ordering needs cluster statistics")
		}
		es = newEdgeSizes(p, store)
		initial = costBasedOrder(p, store, es)
	default:
		es = newEdgeSizes(p, store)
		initial = gcf(es)
	}

	lp := newLabelPairs(p, store)
	h := buildDAG(p, initial, variant, &lp)
	desc := h.DescendantSizes()

	order := initial
	if mode == ModeCSCE || mode == ModeCostBased {
		order = generatePlan(h, desc, store, p, es)
	}

	pl := &Plan{
		Pattern:         p,
		Variant:         variant,
		Mode:            mode,
		Order:           order,
		DAG:             h,
		DescendantSizes: desc,
		NECClasses:      NEC(p),
	}
	pl.SCE = computeSCE(pl, &lp)
	return pl, nil
}

// FromOrder builds a Plan around a caller-supplied matching order (used by
// baselines and tests). The order must be a permutation of the pattern
// vertices.
func FromOrder(p *graph.Graph, store *ccsr.Store, variant graph.Variant, order []graph.VertexID) (*Plan, error) {
	if len(order) != p.NumVertices() {
		return nil, fmt.Errorf("plan: order has %d vertices, pattern has %d", len(order), p.NumVertices())
	}
	seen := make([]bool, p.NumVertices())
	for _, v := range order {
		if int(v) >= len(seen) || seen[v] {
			return nil, fmt.Errorf("plan: order is not a permutation")
		}
		seen[v] = true
	}
	lp := newLabelPairs(p, store)
	h := buildDAG(p, order, variant, &lp)
	pl := &Plan{
		Pattern:         p,
		Variant:         variant,
		Order:           append([]graph.VertexID(nil), order...),
		DAG:             h,
		DescendantSizes: h.DescendantSizes(),
		NECClasses:      NEC(p),
	}
	pl.SCE = computeSCE(pl, &lp)
	return pl, nil
}

// computeSCE measures sequential candidate equivalence over the plan's
// order: vertex Φ[j] exhibits SCE when some earlier Φ[i] has no H-path to
// it (Definition 1). The cluster contribution counts SCE vertices whose
// independence also guarantees injectivity for free — every independent
// predecessor either carries a different label or shares no data edges
// (empty (ui,uj)*-clusters).
//
// Every H-ancestor of Φ[j] precedes it in Φ (Φ is a topological order of
// H), so Φ[j] has exactly j - |anc(Φ[j])| independent predecessors. The
// cluster condition fails only through an earlier independent vertex with
// Φ[j]'s label, looked for along the chain of earlier same-label positions
// and charged only when that label's own clusters are non-empty (asked
// once per label through lp). Building the ancestor sets costs
// O(|E_H| · |V_P|/64) words.
func computeSCE(pl *Plan, lp *labelPairs) SCEStats {
	n := len(pl.Order)
	stats := SCEStats{PatternVertices: n, TotalPairs: n * (n - 1) / 2}
	anc := pl.DAG.ancestorSets(pl.Order)
	// prev[j] is the last position before j with Φ[j]'s label, or -1.
	buf := make([]int32, n+lp.k)
	prev, last := buf[:n], buf[n:]
	for i := range last {
		last[i] = -1
	}
	for j, u := range pl.Order {
		prev[j], last[lp.class[u]] = last[lp.class[u]], int32(j)
	}
	for j := 1; j < n; j++ {
		uj := pl.Order[j]
		independent := j - anc.popcount(int(uj))
		if independent == 0 {
			continue
		}
		stats.IndependentPairs += independent
		stats.SCEVertices++
		clusterOK := true
		for i := prev[j]; i >= 0; i = prev[i] {
			if !anc.get(int(uj), int(pl.Order[i])) {
				clusterOK = !lp.nonEmpty(uj, uj)
				break
			}
		}
		if clusterOK {
			stats.ClusterSCEVertices++
		}
	}
	return stats
}

// String renders the plan compactly for logs.
func (pl *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan[%s,%s] order=", pl.Mode, pl.Variant)
	for i, v := range pl.Order {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "u%d", v)
	}
	fmt.Fprintf(&b, " H=%d edges, SCE=%.0f%%", pl.DAG.NumEdges(), 100*pl.SCE.Ratio())
	return b.String()
}

// PositionOf returns the order position of pattern vertex v, or -1.
func (pl *Plan) PositionOf(v graph.VertexID) int {
	for i, u := range pl.Order {
		if u == v {
			return i
		}
	}
	return -1
}
