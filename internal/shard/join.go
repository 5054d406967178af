package shard

import (
	"context"
	"math/bits"
	"slices"

	"csce/internal/graph"
)

// Cross-shard join: the coordinator hash-joins the per-twig partial
// embeddings on their shared query vertices, smallest relation first, and
// streams fully joined rows through the caller's emit hook. Intermediate
// joins materialize; the LAST join streams row by row, so Limit stops the
// work (not just the output) on the final, usually largest, step.
//
// Relations are flat: one slab of ids per relation, len(cols) per row, so
// a relation costs one allocation however many rows it holds. A join step
// indexes its right relation with two allocations (joinStep) and merges
// every row pair into one reused buffer.

// partialRel is one twig's rows as a relation over pattern vertices.
type partialRel struct {
	cols []graph.VertexID // pattern vertices, in row column order
	flat []graph.VertexID // rows back to back, len(cols) ids each
}

// rows is the relation's row count.
func (r partialRel) rows() int { return len(r.flat) / len(r.cols) }

// joinStats reports what one join pass did.
type joinStats struct {
	// Candidates counts the right rows whose shared values equal the probe
	// row's, across all join steps — the join-explosion signal exported as
	// csce_shard_join_candidates.
	Candidates uint64
	Cancelled  bool
}

// joinPartials joins the twig relations and emits full embeddings indexed
// by pattern vertex. emit returning false stops the enumeration (limit
// semantics are the caller's: it usually counts and returns false at its
// cap). rels is never empty: every pattern has a twig. injective enforces
// distinct data vertices per embedding (edge-induced); the check also
// prunes intermediate rows, since no extension of a non-injective row can
// become injective.
func joinPartials(
	ctx context.Context,
	numPatternVerts int,
	rels []partialRel,
	injective bool,
	emit func(mapping []graph.VertexID) bool,
) joinStats {
	var st joinStats
	order := planJoinOrder(rels)
	acc := rels[order[0]]
	if injective {
		acc = filterInjective(acc)
	}

	// The final step streams into mapping; with a single relation the
	// "join" is an identity pass over its rows.
	mapping := make([]graph.VertexID, numPatternVerts)
	emitRow := func(cols []graph.VertexID, row []graph.VertexID) bool {
		for i, qv := range cols {
			mapping[qv] = row[i]
		}
		return emit(mapping)
	}
	if len(rels) == 1 {
		w := len(acc.cols)
		for lo, ri := 0, 0; lo < len(acc.flat); lo, ri = lo+w, ri+1 {
			if ri%1024 == 0 && pollCancelled(ctx) {
				st.Cancelled = true
				return st
			}
			if !emitRow(acc.cols, acc.flat[lo:lo+w]) {
				return st
			}
		}
		return st
	}

	// Intermediate joins materialize, each sized for one row per left row.
	for i := 1; i < len(rels)-1; i++ {
		j := newJoinStep(acc.cols, rels[order[i]])
		out := partialRel{cols: j.outCols, flat: make([]graph.VertexID, 0, acc.rows()*len(j.outCols))}
		if !j.run(ctx, acc, injective, &st, func(row []graph.VertexID) bool {
			out.flat = append(out.flat, row...)
			return true
		}) {
			return st
		}
		if acc = out; len(acc.flat) == 0 {
			return st
		}
	}
	j := newJoinStep(acc.cols, rels[order[len(rels)-1]])
	j.run(ctx, acc, injective, &st, func(row []graph.VertexID) bool {
		return emitRow(j.outCols, row)
	})
	return st
}

// planJoinOrder orders relations smallest first, then greedily appends the
// smallest relation sharing a column with the accumulated set (connected
// patterns always have one; a disconnected remainder falls back to any
// smallest, which degrades to a cartesian join but stays correct). Ties go
// to the lower index.
func planJoinOrder(rels []partialRel) []int {
	order := make([]int, 0, len(rels))
	used := make([]bool, len(rels))
	seen := make(map[graph.VertexID]bool)
	for len(order) < len(rels) {
		best, bestShares := -1, false
		for i, r := range rels {
			if used[i] {
				continue
			}
			shares := len(order) == 0 || slices.ContainsFunc(r.cols, func(c graph.VertexID) bool { return seen[c] })
			if best < 0 || shares && !bestShares || shares == bestShares && r.rows() < rels[best].rows() {
				best, bestShares = i, shares
			}
		}
		used[best] = true
		order = append(order, best)
		for _, c := range rels[best].cols {
			seen[c] = true
		}
	}
	return order
}

// joinStep is one join of an accumulated left relation with a right
// relation, hash-indexed on their shared columns: the top bits of a row's
// keyHash pick a bucket, head holds 1 + the first row of each bucket's
// chain (0: empty), and next links each row to the next row of its bucket
// in row order (-1: end). A probe compares the shared values along the
// chain, so a collision costs a comparison, never a false match. Right
// relations are twig relations, which Coordinator.Match bounds to 2^31-1.
type joinStep struct {
	right   partialRel
	lshared []int // shared columns' indices in the left row
	rshared []int // the same columns' indices in the right row
	rnew    []int // right-only columns' indices, in right column order
	outCols []graph.VertexID
	shift   uint // bucket of hash h: h >> shift
	head    []int32
	next    []int32
}

// newJoinStep splits the columns and indexes the right relation.
func newJoinStep(left []graph.VertexID, right partialRel) *joinStep {
	j := &joinStep{right: right, outCols: slices.Clone(left)}
	for ri, c := range right.cols {
		if li := slices.Index(left, c); li >= 0 {
			j.lshared = append(j.lshared, li)
			j.rshared = append(j.rshared, ri)
		} else {
			j.rnew = append(j.rnew, ri)
			j.outCols = append(j.outCols, c)
		}
	}
	j.head, j.next, j.shift = buildIndex(right, j.rshared)
	return j
}

// buildIndex chains the right rows into more buckets than rows. Walking
// the rows backwards leaves every chain in ascending row order, so probes
// emit matches in the order the rows arrived.
//
//csce:hotpath once per right row; the index's two allocations are per join step
func buildIndex(right partialRel, shared []int) (head, next []int32, shift uint) {
	n, w := right.rows(), len(right.cols)
	b := uint(bits.Len(uint(n)))
	head = make([]int32, 1<<b)
	next = make([]int32, n)
	shift = 64 - b
	for r := n - 1; r >= 0; r-- {
		h := keyHash(right.flat[r*w:], shared) >> shift
		next[r] = head[h] - 1
		head[h] = int32(r) + 1
	}
	return head, next, shift
}

// keyHash mixes the shared-column values of one row, Fibonacci-style, so
// the top bits that pick a bucket depend on every value.
//
//csce:hotpath once per probed and indexed row; pure arithmetic
func keyHash(row []graph.VertexID, cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = (h ^ uint64(row[c])) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// match walks the chain from right row r to the first row whose shared
// values equal row's, or -1.
//
//csce:hotpath chain walk per probe; pure comparisons
func (j *joinStep) match(row []graph.VertexID, r int32) int32 {
	w := len(j.right.cols)
	for ; r >= 0; r = j.next[r] {
		other := j.right.flat[int(r)*w:]
		same := true
		for k, lc := range j.lshared {
			if row[lc] != other[j.rshared[k]] {
				same = false
				break
			}
		}
		if same {
			return r
		}
	}
	return -1
}

// run joins every left row with its matching right rows, handing each
// merged row (outCols order, in a buffer reused across calls) to sink
// until sink returns false. It reports whether it finished: false when
// sink stopped it or ctx was cancelled (st.Cancelled).
//
//csce:hotpath the per-row join loop; the merge buffer is its one allocation per join step
func (j *joinStep) run(ctx context.Context, left partialRel, injective bool, st *joinStats, sink func(row []graph.VertexID) bool) bool {
	merged := make([]graph.VertexID, 0, len(j.outCols))
	lw, rw := len(left.cols), len(j.right.cols)
	for lo, ri := 0, 0; lo < len(left.flat); lo, ri = lo+lw, ri+1 {
		if ri%1024 == 0 && pollCancelled(ctx) {
			st.Cancelled = true
			return false
		}
		row := left.flat[lo : lo+lw]
		for r := j.match(row, j.head[keyHash(row, j.lshared)>>j.shift]-1); r >= 0; r = j.match(row, j.next[r]) {
			st.Candidates++
			merged = append(merged[:0], row...)
			for _, c := range j.rnew {
				merged = append(merged, j.right.flat[int(r)*rw+c])
			}
			if injective && !distinctRow(merged) {
				continue
			}
			if !sink(merged) {
				return false
			}
		}
	}
	return true
}

// filterInjective drops rows mapping two pattern vertices to one data
// vertex, into a fresh slab (the input may be shared).
func filterInjective(r partialRel) partialRel {
	out := partialRel{cols: r.cols, flat: make([]graph.VertexID, 0, len(r.flat))}
	w := len(r.cols)
	for lo := 0; lo < len(r.flat); lo += w {
		if row := r.flat[lo : lo+w]; distinctRow(row) {
			out.flat = append(out.flat, row...)
		}
	}
	return out
}

// distinctRow reports whether a row maps its pattern vertices to distinct
// data vertices (pattern rows are short; the quadratic scan beats a map).
//
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
