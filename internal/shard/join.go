package shard

import (
	"context"
	"sort"

	"csce/internal/graph"
)

// Cross-shard join: the coordinator hash-joins the per-twig partial
// embeddings on their shared query vertices, smallest relation first, and
// streams fully joined rows through the caller's emit hook. Intermediate
// joins materialize; the LAST join streams row by row, so Limit stops the
// work (not just the output) on the final, usually largest, step.

// partialRel is one twig's rows as a relation over pattern vertices.
type partialRel struct {
	cols []graph.VertexID   // pattern vertices, in row column order
	rows [][]graph.VertexID // each row aligned to cols
}

// joinStats reports what one join pass did.
type joinStats struct {
	Emitted uint64
	// Candidates counts hash-bucket entries probed across all join steps —
	// the join-explosion signal exported as csce_shard_join_candidates.
	Candidates uint64
	LimitHit   bool
	Cancelled  bool
}

// joinPartials joins the twig relations and emits full embeddings indexed
// by pattern vertex. emit returning false stops the enumeration (limit
// semantics are the caller's: it usually counts and returns false at its
// cap). injective enforces distinct data vertices per embedding
// (edge-induced); the check also prunes intermediate rows, since no
// extension of a non-injective row can become injective.
func joinPartials(
	ctx context.Context,
	numPatternVerts int,
	rels []partialRel,
	injective bool,
	emit func(mapping []graph.VertexID) bool,
) joinStats {
	var st joinStats
	if len(rels) == 0 {
		return st
	}
	order := planJoinOrder(rels)
	acc := rels[order[0]]
	if injective {
		acc = filterInjective(acc)
	}

	// Intermediate joins: all but the final relation materialize.
	for i := 1; i < len(rels)-1; i++ {
		if pollCancelled(ctx) {
			st.Cancelled = true
			return st
		}
		acc = hashJoin(acc, rels[order[i]], injective, &st.Candidates)
		if len(acc.rows) == 0 {
			return st
		}
	}

	// Final step streams. With a single relation the "join" is an identity
	// pass over its rows.
	mapping := make([]graph.VertexID, numPatternVerts)
	emitRow := func(cols []graph.VertexID, row []graph.VertexID) bool {
		for i, qv := range cols {
			mapping[qv] = row[i]
		}
		if !emit(mapping) {
			st.LimitHit = true
			return false
		}
		st.Emitted++
		return true
	}
	if len(rels) == 1 {
		for ri, row := range acc.rows {
			if ri%1024 == 0 && pollCancelled(ctx) {
				st.Cancelled = true
				return st
			}
			if !emitRow(acc.cols, row) {
				return st
			}
		}
		return st
	}

	last := rels[order[len(rels)-1]]
	shared, lastNew := splitColumns(acc.cols, last.cols)
	idx := buildHashIndex(last, shared)
	outCols := append(append([]graph.VertexID(nil), acc.cols...), lastNew.cols...)
	key := make([]byte, 0, 4*len(shared))
	for ri, row := range acc.rows {
		if ri%1024 == 0 && pollCancelled(ctx) {
			st.Cancelled = true
			return st
		}
		key = appendJoinKey(key[:0], acc.cols, row, shared)
		bucket := idx[string(key)]
		st.Candidates += uint64(len(bucket))
		for _, other := range bucket {
			merged := mergeRow(row, other, lastNew.idx)
			if injective && !distinctRow(merged) {
				continue
			}
			if !emitRow(outCols, merged) {
				return st
			}
		}
	}
	return st
}

// planJoinOrder orders relations smallest first, then greedily appends the
// smallest relation sharing a column with the accumulated set (connected
// patterns always have one; a disconnected remainder falls back to any
// smallest, which degrades to a cartesian join but stays correct).
func planJoinOrder(rels []partialRel) []int {
	n := len(rels)
	order := make([]int, 0, n)
	used := make([]bool, n)
	seen := make(map[graph.VertexID]bool)

	pick := func(requireShared bool) int {
		best := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if requireShared {
				sharesAny := false
				for _, c := range rels[i].cols {
					if seen[c] {
						sharesAny = true
						break
					}
				}
				if !sharesAny {
					continue
				}
			}
			if best < 0 || len(rels[i].rows) < len(rels[best].rows) {
				best = i
			}
		}
		return best
	}
	for len(order) < n {
		i := pick(len(order) > 0)
		if i < 0 {
			i = pick(false)
		}
		used[i] = true
		order = append(order, i)
		for _, c := range rels[i].cols {
			seen[c] = true
		}
	}
	return order
}

// sharedCol pairs a shared pattern vertex with its index in each side.
type sharedCol struct {
	left, right int
}

// newCols lists the right side's novel columns and their right indices.
type newCols struct {
	cols []graph.VertexID
	idx  []int
}

// splitColumns computes the shared and right-only columns of a join.
func splitColumns(left, right []graph.VertexID) ([]sharedCol, newCols) {
	leftPos := make(map[graph.VertexID]int, len(left))
	for i, c := range left {
		leftPos[c] = i
	}
	var shared []sharedCol
	var nc newCols
	for j, c := range right {
		if i, ok := leftPos[c]; ok {
			shared = append(shared, sharedCol{left: i, right: j})
		} else {
			nc.cols = append(nc.cols, c)
			nc.idx = append(nc.idx, j)
		}
	}
	// Deterministic key layout: shared columns in right-index order already.
	sort.Slice(shared, func(a, b int) bool { return shared[a].right < shared[b].right })
	return shared, nc
}

// buildHashIndex buckets the right relation by its shared-column values.
func buildHashIndex(right partialRel, shared []sharedCol) map[string][][]graph.VertexID {
	idx := make(map[string][][]graph.VertexID, len(right.rows))
	key := make([]byte, 0, 4*len(shared))
	for _, row := range right.rows {
		key = key[:0]
		for _, sc := range shared {
			key = appendVert(key, row[sc.right])
		}
		idx[string(key)] = append(idx[string(key)], row)
	}
	return idx
}

// appendJoinKey encodes the left row's shared-column values in the same
// layout buildHashIndex used.
//
//csce:hotpath once per probe row; writes into the caller's reused buffer
func appendJoinKey(key []byte, _ []graph.VertexID, row []graph.VertexID, shared []sharedCol) []byte {
	for _, sc := range shared {
		key = appendVert(key, row[sc.left])
	}
	return key
}

//csce:hotpath the key-encoding primitive under both index build and probe
func appendVert(b []byte, v graph.VertexID) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// mergeRow extends a left row with the right row's novel columns. It runs
// once per joined row pair; its output make is pinned in the budget because
// each merged row must own distinct backing memory.
//
//csce:hotpath
func mergeRow(left, right []graph.VertexID, rightNewIdx []int) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(left)+len(rightNewIdx))
	out = append(out, left...)
	for _, j := range rightNewIdx {
		out = append(out, right[j])
	}
	return out
}

// hashJoin materializes one intermediate join step: the cross-shard join
// inner loop. Per-step setup allocations are pinned; per-row work must
// reuse the probe key buffer.
//
//csce:hotpath
func hashJoin(left, right partialRel, injective bool, candidates *uint64) partialRel {
	shared, nc := splitColumns(left.cols, right.cols)
	idx := buildHashIndex(right, shared)
	out := partialRel{cols: append(append([]graph.VertexID(nil), left.cols...), nc.cols...)}
	key := make([]byte, 0, 4*len(shared))
	for _, row := range left.rows {
		key = appendJoinKey(key[:0], left.cols, row, shared)
		bucket := idx[string(key)]
		*candidates += uint64(len(bucket))
		for _, other := range bucket {
			merged := mergeRow(row, other, nc.idx)
			if injective && !distinctRow(merged) {
				continue
			}
			out.rows = append(out.rows, merged)
		}
	}
	return out
}

// filterInjective drops rows mapping two pattern vertices to one data
// vertex (pattern rows are short; the quadratic scan beats a map).
func filterInjective(r partialRel) partialRel {
	out := partialRel{cols: r.cols, rows: r.rows[:0:0]}
	for _, row := range r.rows {
		if distinctRow(row) {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

//csce:hotpath injectivity scan per merged row; pure comparisons
func distinctRow(row []graph.VertexID) bool {
	for i := 1; i < len(row); i++ {
		for j := 0; j < i; j++ {
			if row[i] == row[j] {
				return false
			}
		}
	}
	return true
}

// pollCancelled is the join loops' cooperative cancellation check.
func pollCancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
