package prefilter

import (
	"cmp"
	"slices"
	"sync"

	"csce/internal/ccsr"
	"csce/internal/graph"
)

// The check is compile → probe → evaluate. Compile walks the pattern once
// and emits a probe program: every count the cascade will need, as data.
// Probe answers the whole program against each signature under that
// signature's read lock — one atomic observation per signature, the same
// granularity at which the shard scatter pins per-shard snapshots — and
// accumulates the answers into one sum vector. Evaluate then runs the
// cascade over the sums, coarsest filter first, so the rejecting filter is
// deterministic and independent of probing order.

// clusterNeed demands `need` data edges in cluster k (1 for homomorphic,
// the pattern's edge count in k for injective variants).
type clusterNeed struct {
	k    ccsr.Key
	need uint32
}

// degNeed demands `need` data vertices of `label` with degree >= min.
type degNeed struct {
	label graph.Label
	min   uint32
	need  uint32
}

// wlNeed demands `need` data vertices on wk's side with >= min incident
// wk-cluster edges.
type wlNeed struct {
	wk   wlKey
	min  uint32
	need uint32
}

// vreq is one pattern vertex's degree requirement.
type vreq struct {
	label graph.Label
	req   uint32
}

// triple is a distinct (direction, edge label, neighbor label) incidence
// class — the unit of the homomorphic degree requirement, where pattern
// edges in the same class may collapse onto one data edge.
type triple struct {
	in bool
	el graph.EdgeLabel
	l  graph.Label
}

type scratch struct {
	pairs    []pairKey
	clusters []clusterNeed
	degs     []degNeed
	wls      []wlNeed
	vreqs    []vreq
	sorted   []uint64 // the pattern's cluster keys as clusterOrder, ascending
	wlids    []uint32 // one vertex's incident (cluster, side) IDs
	wlreqs   []uint64 // (cluster, side) ID << 32 | ^count, one per vertex and ID
	triples  []triple
	sums     []uint64
	// pairSeen and clusterAt index pairs and clusters by key, so the dedup
	// is O(1) per pattern edge and the slices keep first-occurrence order.
	pairSeen  map[pairKey]struct{}
	clusterAt map[uint64]int32 // by clusterOrder
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{pairSeen: make(map[pairKey]struct{}), clusterAt: make(map[uint64]int32)}
}}

func (sc *scratch) reset() {
	sc.pairs = sc.pairs[:0]
	sc.clusters = sc.clusters[:0]
	sc.degs = sc.degs[:0]
	sc.wls = sc.wls[:0]
	sc.vreqs = sc.vreqs[:0]
	sc.sorted = sc.sorted[:0]
	sc.wlids = sc.wlids[:0]
	sc.wlreqs = sc.wlreqs[:0]
	sc.triples = sc.triples[:0]
	sc.sums = sc.sums[:0]
	clear(sc.pairSeen)
	clear(sc.clusterAt)
}

// clusterOrder packs a cluster key's (Src, Dst, Edge) into one integer
// that sorts the same way; the keys of one check share their directedness.
func clusterOrder(k ccsr.Key) uint64 {
	return uint64(k.Src)<<32 | uint64(k.Dst)<<16 | uint64(k.Edge)
}

// clusterKey inverts clusterOrder.
func clusterKey(ord uint64, directed bool) ccsr.Key {
	return ccsr.Key{Src: graph.Label(ord >> 32), Dst: graph.Label(ord >> 16), Edge: graph.EdgeLabel(ord), Directed: directed}
}

// CheckMany runs the cascade for pattern p against the union of the given
// signatures: existence is any-signature existence and every availability
// count is the cross-signature sum. With the shard layer's
// complete-adjacency-at-owner partitioning this union can only overcount,
// so rejects remain proofs of emptiness (see the package comment).
//
//csce:hotpath
func CheckMany(sigs []*Signature, p *graph.Graph, variant graph.Variant) Decision {
	if len(sigs) == 0 || p.NumVertices() == 0 {
		return Decision{Admit: true}
	}
	directed := p.Directed()
	for _, s := range sigs {
		if s == nil || s.directed != directed {
			// Directedness mismatches are the executor's 4xx to report;
			// admitting keeps the filter's never-wrong contract trivially.
			return Decision{Admit: true}
		}
	}
	injective := variant.Injective()

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset()

	compilePairsClusters(sc, p, directed, injective)
	compileDegrees(sc, p, directed, injective)
	if injective {
		compileWL(sc, p, directed)
	}

	// Probe: one atomic pass per signature, summing every programmed count.
	total := len(sc.pairs) + len(sc.clusters) + len(sc.degs) + len(sc.wls)
	for len(sc.sums) < total {
		sc.sums = append(sc.sums, 0)
	}
	sums := sc.sums[:total]
	for i := range sums {
		sums[i] = 0
	}
	for _, sig := range sigs {
		sig.mu.RLock()
		i := 0
		for _, pk := range sc.pairs {
			sums[i] += uint64(sig.pair[pk])
			i++
		}
		for _, cn := range sc.clusters {
			sums[i] += uint64(sig.cluster[cn.k])
			i++
		}
		for _, dn := range sc.degs {
			if h := sig.degHist[dn.label]; h != nil {
				sums[i] += h.countAtLeast(dn.min)
			}
			i++
		}
		for _, wn := range sc.wls {
			if e := sig.wl[wn.wk]; e != nil {
				sums[i] += e.h.countAtLeast(wn.min)
			}
			i++
		}
		sig.mu.RUnlock()
	}

	// Evaluate the cascade, coarsest first.
	i := 0
	for _, pk := range sc.pairs {
		if sums[i] == 0 {
			return Decision{Filter: FilterNbrLabel, Checked: 1,
				SrcLabel: pk.lo, DstLabel: pk.hi, Needed: 1}
		}
		i++
	}
	for _, cn := range sc.clusters {
		if sums[i] < uint64(cn.need) {
			return Decision{Filter: FilterLabelPair, Checked: 2,
				SrcLabel: cn.k.Src, DstLabel: cn.k.Dst, EdgeLabel: cn.k.Edge,
				Needed: cn.need, Have: sums[i]}
		}
		i++
	}
	for _, dn := range sc.degs {
		if sums[i] < uint64(dn.need) {
			return Decision{Filter: FilterDegree, Checked: 3,
				SrcLabel: dn.label, MinCount: dn.min, Needed: dn.need, Have: sums[i]}
		}
		i++
	}
	for _, wn := range sc.wls {
		if sums[i] < uint64(wn.need) {
			other := wn.wk.key.Dst
			if wn.wk.side == 1 {
				other = wn.wk.key.Src
			}
			return Decision{Filter: FilterWL1, Checked: 4,
				SrcLabel: wn.wk.sideLabel(), DstLabel: other, EdgeLabel: wn.wk.key.Edge,
				MinCount: wn.min, Needed: wn.need, Have: sums[i]}
		}
		i++
	}
	checked := uint8(3)
	if injective {
		checked = 4
	}
	return Decision{Admit: true, Checked: checked}
}

// compilePairsClusters dedupes the pattern's label pairs (nbr-label
// probes) and exact cluster keys (label-pair probes, with per-cluster
// pattern-edge counts when the variant maps edges injectively). Both lists
// keep first-occurrence order in pattern edge order: a reject names the
// first failing probe.
func compilePairsClusters(sc *scratch, p *graph.Graph, directed, injective bool) {
	p.Edges(func(v, w graph.VertexID, el graph.EdgeLabel) {
		lv, lw := p.Label(v), p.Label(w)
		pk := newPairKey(lv, lw)
		if _, ok := sc.pairSeen[pk]; !ok {
			sc.pairSeen[pk] = struct{}{}
			sc.pairs = append(sc.pairs, pk)
		}
		k := ccsr.NewKey(lv, lw, el, directed)
		ko := clusterOrder(k)
		if i, ok := sc.clusterAt[ko]; ok {
			if injective {
				sc.clusters[i].need++
			}
			return
		}
		sc.clusterAt[ko] = int32(len(sc.clusters))
		sc.clusters = append(sc.clusters, clusterNeed{k: k, need: 1})
	})
}

// compileDegrees computes each pattern vertex's demanded data degree and
// turns the per-label requirement multisets into rank probes.
//
// Injective variants: all pattern edges incident to u map to distinct data
// edges incident to f(u) (distinct neighbors under injectivity, and
// parallel pattern edges differ in label), so the requirement is u's full
// incident-edge count, and the i-th most demanding vertex of a label needs
// i data vertices at its degree or above (a rank/containment check).
//
// Homomorphic: pattern edges in the same (direction, edge label, neighbor
// label) class may collapse onto one data edge, while edges of distinct
// classes cannot, so the requirement is the distinct class count — and
// without injectivity all same-label pattern vertices may share one data
// vertex, so only each label's maximum requirement is probed, with need 1.
func compileDegrees(sc *scratch, p *graph.Graph, directed, injective bool) {
	n := p.NumVertices()
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		var req uint32
		if injective {
			req = uint32(len(p.Out(u)))
			if directed {
				req += uint32(len(p.In(u)))
			}
		} else {
			sc.triples = sc.triples[:0]
			add := func(in bool, el graph.EdgeLabel, l graph.Label) {
				t := triple{in: in, el: el, l: l}
				for _, have := range sc.triples {
					if have == t {
						return
					}
				}
				sc.triples = append(sc.triples, t)
			}
			for _, nb := range p.Out(u) {
				add(false, nb.Label, p.Label(nb.To))
			}
			if directed {
				for _, nb := range p.In(u) {
					add(true, nb.Label, p.Label(nb.To))
				}
			}
			req = uint32(len(sc.triples))
		}
		sc.vreqs = append(sc.vreqs, vreq{label: p.Label(u), req: req})
	}

	// Sort by (label asc, req desc). Elements that tie are identical, so
	// the unstable sort's order is exact.
	slices.SortFunc(sc.vreqs, func(a, b vreq) int {
		if c := cmp.Compare(a.label, b.label); c != 0 {
			return c
		}
		return cmp.Compare(b.req, a.req)
	})

	for i := 0; i < len(sc.vreqs); {
		label := sc.vreqs[i].label
		rank := uint32(0)
		for j := i; j < len(sc.vreqs) && sc.vreqs[j].label == label; j++ {
			rank++
			if j+1 < len(sc.vreqs) && sc.vreqs[j+1].label == label && sc.vreqs[j+1].req == sc.vreqs[j].req {
				continue // the strictest probe for this req value is at its run's end
			}
			need := rank
			if !injective {
				need = 1
			}
			sc.degs = append(sc.degs, degNeed{label: label, min: sc.vreqs[j].req, need: need})
			if !injective {
				break // only the label's maximum requirement matters
			}
		}
		for i < len(sc.vreqs) && sc.vreqs[i].label == label {
			i++
		}
	}
}

// compileWL splits each vertex's degree requirement per (cluster, side)
// and emits the same rank probes as compileDegrees against the WL-1
// histograms. Only meaningful for injective variants; for homomorphisms it
// degenerates to the label-pair existence check and is skipped. It runs
// after compilePairsClusters, whose clusters are every key it meets.
func compileWL(sc *scratch, p *graph.Graph, directed bool) {
	// Number the (cluster, side) keys in key order, so that one integer per
	// (key, vertex) pair sorts the requirements by key, then by count.
	for _, cn := range sc.clusters {
		sc.sorted = append(sc.sorted, clusterOrder(cn.k))
	}
	slices.Sort(sc.sorted)
	id := func(k ccsr.Key, side uint8) uint32 {
		i, _ := slices.BinarySearch(sc.sorted, clusterOrder(k))
		return uint32(i)<<1 | uint32(side)
	}
	n := p.NumVertices()
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		lu := p.Label(u)
		sc.wlids = sc.wlids[:0]
		for _, nb := range p.Out(u) {
			ln := p.Label(nb.To)
			k := ccsr.NewKey(lu, ln, nb.Label, directed)
			side := uint8(0)
			if !directed && k.Src != k.Dst && lu != k.Src {
				side = 1
			}
			sc.wlids = append(sc.wlids, id(k, side))
		}
		if directed {
			for _, nb := range p.In(u) {
				sc.wlids = append(sc.wlids, id(ccsr.NewKey(p.Label(nb.To), lu, nb.Label, true), 1))
			}
		}
		// u's count on a key is its ID's run length; storing ^count puts
		// the most demanding vertex of each key first.
		slices.Sort(sc.wlids)
		for i := 0; i < len(sc.wlids); {
			j := i + 1
			for j < len(sc.wlids) && sc.wlids[j] == sc.wlids[i] {
				j++
			}
			sc.wlreqs = append(sc.wlreqs, uint64(sc.wlids[i])<<32|uint64(^uint32(j-i)))
			i = j
		}
	}
	slices.Sort(sc.wlreqs)

	rank := uint32(0)
	for i, req := range sc.wlreqs {
		rank++
		if i+1 < len(sc.wlreqs) && sc.wlreqs[i+1] == req {
			continue
		}
		kid := uint32(req >> 32)
		wk := wlKey{key: clusterKey(sc.sorted[kid>>1], directed), side: uint8(kid & 1)}
		sc.wls = append(sc.wls, wlNeed{wk: wk, min: ^uint32(req), need: rank})
		if i+1 >= len(sc.wlreqs) || uint32(sc.wlreqs[i+1]>>32) != kid {
			rank = 0
		}
	}
}
