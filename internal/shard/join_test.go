package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"csce/internal/graph"
)

// refJoin is the nested-loop reference for joinPartials: the same join
// order and the same injectivity pruning points, but every step compares
// each left row with each right row. It returns the emitted mappings in
// emission order and the candidates counted when emission stopped.
func refJoin(numPatternVerts int, rels []partialRel, injective bool, stopAt int) ([][]graph.VertexID, uint64) {
	order := planJoinOrder(rels)
	cols := rels[order[0]].cols
	var acc [][]graph.VertexID
	for _, row := range refRows(rels[order[0]]) {
		if !injective || distinctRow(row) {
			acc = append(acc, row)
		}
	}
	var out [][]graph.VertexID
	var candidates uint64
	for i := 1; i < len(rels); i++ {
		right := rels[order[i]]
		outCols := append([]graph.VertexID(nil), cols...)
		for _, c := range right.cols {
			if indexOf(cols, c) < 0 {
				outCols = append(outCols, c)
			}
		}
		var next [][]graph.VertexID
		rightRows := refRows(right)
		for _, l := range acc {
			for _, r := range rightRows {
				agree := true
				for rj, c := range right.cols {
					if li := indexOf(cols, c); li >= 0 && l[li] != r[rj] {
						agree = false
					}
				}
				if !agree {
					continue
				}
				candidates++
				merged := append([]graph.VertexID(nil), l...)
				for rj, c := range right.cols {
					if indexOf(cols, c) < 0 {
						merged = append(merged, r[rj])
					}
				}
				if injective && !distinctRow(merged) {
					continue
				}
				if i == len(rels)-1 {
					out = append(out, refMapping(numPatternVerts, outCols, merged))
					if len(out) == stopAt {
						return out, candidates
					}
				}
				next = append(next, merged)
			}
		}
		cols, acc = outCols, next
	}
	if len(rels) == 1 {
		for _, row := range acc {
			out = append(out, refMapping(numPatternVerts, cols, row))
			if len(out) == stopAt {
				break
			}
		}
	}
	return out, candidates
}

func refRows(r partialRel) [][]graph.VertexID {
	var rows [][]graph.VertexID
	for lo := 0; lo < len(r.flat); lo += len(r.cols) {
		rows = append(rows, r.flat[lo:lo+len(r.cols)])
	}
	return rows
}

func refMapping(n int, cols, row []graph.VertexID) []graph.VertexID {
	m := make([]graph.VertexID, n)
	for i, c := range cols {
		m[c] = row[i]
	}
	return m
}

func indexOf(cols []graph.VertexID, c graph.VertexID) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	return -1
}

// randomRels draws 1-4 relations of width 1-4 over at most 16 pattern
// vertices. Each relation shares 0-3 columns with the ones before it;
// values come from a small domain, and some rows are repeated, so
// duplicates, fan-out and injectivity failures all occur.
func randomRels(rng *rand.Rand) []partialRel {
	rels := make([]partialRel, 1+rng.Intn(4))
	var seen []graph.VertexID
	fresh := graph.VertexID(0)
	for i := range rels {
		width := 1 + rng.Intn(4)
		var cols []graph.VertexID
		for _, k := range rng.Perm(len(seen))[:min(rng.Intn(4), width, len(seen))] {
			cols = append(cols, seen[k])
		}
		for len(cols) < width {
			cols = append(cols, fresh)
			seen = append(seen, fresh)
			fresh++
		}
		rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
		domain := 2 + rng.Intn(5)
		var flat []graph.VertexID
		for r := rng.Intn(16); r > 0; r-- {
			lo := len(flat)
			for range cols {
				flat = append(flat, graph.VertexID(rng.Intn(domain)))
			}
			if rng.Intn(4) == 0 {
				flat = append(flat, flat[lo:]...) // a duplicate row
			}
		}
		rels[i] = partialRel{cols: cols, flat: flat}
	}
	return rels
}

// TestJoinMatchesNestedLoop compares joinPartials with the nested-loop
// reference on random relations: the emitted mappings (in order, so also
// as a multiset) and join_candidates, injective or not, run to the end or
// stopped early by emit.
func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const numPatternVerts = 16
	for trial := 0; trial < 2000; trial++ {
		rels := randomRels(rng)
		injective := rng.Intn(2) == 0
		stopAt := 0 // 0 = run to the end
		if rng.Intn(3) == 0 {
			stopAt = 1 + rng.Intn(8)
		}
		wantRows, wantCand := refJoin(numPatternVerts, rels, injective, stopAt)

		var got [][]graph.VertexID
		st := joinPartials(context.Background(), numPatternVerts, rels, injective, func(m []graph.VertexID) bool {
			got = append(got, append([]graph.VertexID(nil), m...))
			return len(got) != stopAt
		})
		desc := fmt.Sprintf("trial %d (injective=%v stopAt=%d, %d relations)", trial, injective, stopAt, len(rels))
		if !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("%s: emitted %v, nested loop %v", desc, got, wantRows)
		}
		// Candidates match exactly on a full run; an early stop leaves the
		// reference's count at the row that stopped it, the join's too.
		if st.Candidates != wantCand {
			t.Fatalf("%s: %d join candidates, nested loop %d", desc, st.Candidates, wantCand)
		}
	}
}

// TestJoinHashCollisionIsNoMatch hand-builds a one-bucket index, so two
// right rows with different shared values share a chain: a probe must
// return only the row whose values are equal, and none when neither is.
func TestJoinHashCollisionIsNoMatch(t *testing.T) {
	right := partialRel{cols: []graph.VertexID{0, 1}, flat: []graph.VertexID{5, 50, 7, 70}}
	left := partialRel{cols: []graph.VertexID{0}, flat: []graph.VertexID{7, 8}}
	j := &joinStep{
		right:   right,
		lshared: []int{0},
		rshared: []int{0},
		rnew:    []int{1},
		outCols: []graph.VertexID{0, 1},
		shift:   64,             // every hash lands in bucket 0,
		head:    []int32{1},     // whose chain starts at row 0
		next:    []int32{1, -1}, // and goes on to row 1
	}
	var st joinStats
	var got [][]graph.VertexID
	j.run(context.Background(), left, false, &st, func(row []graph.VertexID) bool {
		got = append(got, append([]graph.VertexID(nil), row...))
		return true
	})
	want := [][]graph.VertexID{{7, 70}}
	if !reflect.DeepEqual(got, want) || st.Candidates != 1 {
		t.Fatalf("colliding chain joined %v with %d candidates, want %v with 1", got, st.Candidates, want)
	}
}
