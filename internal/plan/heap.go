package plan

import "csce/internal/graph"

// vertexOrder is a strict total order over pattern vertices: before(a, b)
// reports whether a is selected ahead of b.
type vertexOrder interface {
	before(a, b graph.VertexID) bool
}

// vertexHeap is an indexed binary heap of pattern vertices whose top is
// the vertex that comes before all others under o. pos locates every
// member, so a vertex whose key moved is re-sifted, and any member is
// removed, in O(log n). It is typed rather than container/heap, whose
// interface boxes every pushed element.
type vertexHeap[O vertexOrder] struct {
	o     O
	items []int32 // member vertices in heap order
	pos   []int32 // pos[v] is v's index in items, or -1 when v is absent
}

// newVertexHeap returns an empty heap over n vertices, kept in buf, which
// must hold 2n entries.
func newVertexHeap[O vertexOrder](o O, buf []int32) vertexHeap[O] {
	n := len(buf) / 2
	pos := buf[n:]
	for v := range pos {
		pos[v] = -1
	}
	return vertexHeap[O]{o: o, items: buf[:0:n], pos: pos}
}

// top returns the first vertex without removing it.
func (h *vertexHeap[O]) top() (graph.VertexID, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return graph.VertexID(h.items[0]), true
}

// has reports whether v is a member.
func (h *vertexHeap[O]) has(v graph.VertexID) bool { return h.pos[v] >= 0 }

// fix inserts v, or restores the heap order around v after its key moved.
// Only v's key may have moved since the heap was last in order.
func (h *vertexHeap[O]) fix(v graph.VertexID) {
	i := int(h.pos[v])
	if i < 0 {
		i = len(h.items)
		h.items = append(h.items, int32(v))
		h.pos[v] = int32(i)
	}
	if !h.up(i) {
		h.down(i)
	}
}

// remove deletes v if it is a member.
func (h *vertexHeap[O]) remove(v graph.VertexID) {
	i := int(h.pos[v])
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	h.pos[v] = -1
	if i < last && !h.up(i) {
		h.down(i)
	}
}

func (h *vertexHeap[O]) less(i, j int) bool {
	return h.o.before(graph.VertexID(h.items[i]), graph.VertexID(h.items[j]))
}

// up sifts the item at i toward the root and reports whether it moved.
func (h *vertexHeap[O]) up(i int) bool {
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
	return i != start
}

func (h *vertexHeap[O]) down(i int) {
	n := len(h.items)
	for {
		first := i
		if l := 2*i + 1; l < n && h.less(l, first) {
			first = l
		}
		if r := 2*i + 2; r < n && h.less(r, first) {
			first = r
		}
		if first == i {
			return
		}
		h.swap(i, first)
		i = first
	}
}

func (h *vertexHeap[O]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}
