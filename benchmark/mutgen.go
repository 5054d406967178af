package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"csce/internal/graph"
)

// batchSize is the number of mutations in every /mutate request.
const batchSize = 32

// growEvery is how often a batch carries two add_vertex mutations. Vertex
// adds are part of the mix but kept rare: a commit costs O(vertices), so a
// vertex count that grew with the number of rounds completed would make a
// round's cost depend on how fast the earlier ones were.
const growEvery = 16

// absentFloor is how many deleted edges the generator keeps in reserve
// before it starts re-inserting them; below it, inserts are fresh edges.
const absentFloor = 4 * batchSize

// mutation is the wire form of one /mutate entry.
type mutation struct {
	Op    string `json:"op"`
	Src   uint32 `json:"src"`
	Dst   uint32 `json:"dst"`
	Label string `json:"label,omitempty"`
}

type edgeKey struct{ a, b uint32 }

// mutGen emits mutation batches that are valid by construction. csced
// rejects a whole batch (422) on a duplicate insert_edge or a missing
// delete_edge, so the generator keeps a shadow of the data graph — the edge
// set and the vertex labels — seeded from the base graph and updated with
// every batch it hands out.
//
// The traffic is a churn: each batch deletes edges chosen uniformly from
// the live graph and re-inserts edges deleted a few batches ago, so the
// graph stays within ~absentFloor edges of the base graph for the whole
// run. A time-bounded run needs that: were the graph to grow with every
// round, a faster build would complete more rounds, reach a larger graph,
// and be charged for it.
type mutGen struct {
	rng      *rand.Rand
	directed bool
	labels   []graph.Label // shadow vertex labels, added vertices included
	names    *graph.LabelTable

	edges   map[edgeKey]int // shadow edge set -> index in present
	present []edgeKey
	absent  []edgeKey // deleted and not yet re-inserted

	newVerts []uint32 // added last growth batch, not yet an endpoint
	round    int
}

func newMutGen(g *graph.Graph, seed int64) (*mutGen, error) {
	if g.EdgeLabelCount() > 1 {
		return nil, fmt.Errorf("mutgen: edge-labelled graphs are not supported")
	}
	m := &mutGen{
		rng:      rand.New(rand.NewSource(seed*2654435761 + 99)),
		directed: g.Directed(),
		labels:   append([]graph.Label(nil), g.Labels()...),
		names:    g.Names,
		edges:    make(map[edgeKey]int, g.NumEdges()),
	}
	g.Edges(func(v, w graph.VertexID, _ graph.EdgeLabel) {
		m.addEdge(m.key(uint32(v), uint32(w)))
	})
	return m, nil
}

// key normalizes an undirected edge so (a,b) and (b,a) collide.
func (m *mutGen) key(a, b uint32) edgeKey {
	if !m.directed && a > b {
		a, b = b, a
	}
	return edgeKey{a, b}
}

func (m *mutGen) hasEdge(a, b uint32) bool {
	_, ok := m.edges[m.key(a, b)]
	return ok
}

func (m *mutGen) addEdge(k edgeKey) {
	m.edges[k] = len(m.present)
	m.present = append(m.present, k)
}

func (m *mutGen) removeEdge(k edgeKey) {
	i := m.edges[k]
	last := m.present[len(m.present)-1]
	m.present[i] = last
	m.edges[last] = i
	m.present = m.present[:len(m.present)-1]
	delete(m.edges, k)
}

// freshEdge draws a non-edge between two distinct existing vertices; a is
// fixed when attach is true (a just-added vertex becoming an endpoint).
func (m *mutGen) freshEdge(a uint32, attach bool) edgeKey {
	n := uint32(len(m.labels))
	for {
		if !attach {
			a = uint32(m.rng.Intn(int(n)))
		}
		b := uint32(m.rng.Intn(int(n)))
		if a == b || m.hasEdge(a, b) {
			continue
		}
		return m.key(a, b)
	}
}

// next returns the following batch and folds it into the shadow graph.
// Order inside a batch: inserts, then deletes, then vertex adds.
func (m *mutGen) next() []mutation {
	grow := m.round%growEvery == 0
	m.round++
	inserts, deletes := batchSize/2, batchSize/2
	if grow {
		inserts-- // two slots go to add_vertex
		deletes--
	}
	batch := make([]mutation, 0, batchSize)

	// Inserts are chosen before this batch's deletes join the absent list,
	// so no edge is deleted and re-inserted inside one batch.
	for i := 0; i < inserts; i++ {
		var k edgeKey
		switch {
		case len(m.newVerts) > 0:
			v := m.newVerts[0]
			m.newVerts = m.newVerts[1:]
			k = m.freshEdge(v, true)
		case len(m.absent) >= absentFloor:
			j := m.rng.Intn(len(m.absent))
			k = m.absent[j]
			m.absent[j] = m.absent[len(m.absent)-1]
			m.absent = m.absent[:len(m.absent)-1]
		default:
			k = m.freshEdge(0, false)
		}
		m.addEdge(k)
		batch = append(batch, mutation{Op: "insert_edge", Src: k.a, Dst: k.b})
	}
	inserted := len(m.present) - inserts // edges at or past this index arrived in this batch
	for i := 0; i < deletes; i++ {
		// Only edges that predate the batch are eligible, so a delete never
		// cancels one of this batch's own inserts.
		j := m.rng.Intn(inserted)
		k := m.present[j]
		m.removeEdge(k)
		// removeEdge moved the last edge into slot j; keep the batch's own
		// inserts out of the eligible prefix.
		inserted--
		if j < inserted {
			m.swapPresent(j, inserted)
		}
		m.absent = append(m.absent, k)
		batch = append(batch, mutation{Op: "delete_edge", Src: k.a, Dst: k.b})
	}
	if grow {
		for i := 0; i < 2; i++ {
			l := m.labels[m.rng.Intn(len(m.labels))]
			m.newVerts = append(m.newVerts, uint32(len(m.labels)))
			m.labels = append(m.labels, l)
			batch = append(batch, mutation{Op: "add_vertex", Label: m.labelName(l)})
		}
	}
	return batch
}

func (m *mutGen) swapPresent(i, j int) {
	m.present[i], m.present[j] = m.present[j], m.present[i]
	m.edges[m.present[i]] = i
	m.edges[m.present[j]] = j
}

func (m *mutGen) labelName(l graph.Label) string {
	if m.names != nil {
		return m.names.VertexName(l)
	}
	return strconv.Itoa(int(l))
}
