package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"csce/internal/graph"
)

// mergeFunc is the shape of intersect, subtract and their two halves.
type mergeFunc func(arena, in, row []graph.VertexID) (out, grown []graph.VertexID)

// ascending draws n distinct ascending ids, each 1 + rng.Intn(gap) above
// the last, from a random start below gap.
func ascending(rng *rand.Rand, n, gap int) []graph.VertexID {
	xs := make([]graph.VertexID, 0, n)
	v := rng.Intn(gap)
	for len(xs) < n {
		xs = append(xs, graph.VertexID(v))
		v += 1 + rng.Intn(gap)
	}
	return xs
}

// naiveMerge is the reference: the elements of in that are (keep=true) or
// are not (keep=false) in row, in in's order.
func naiveMerge(in, row []graph.VertexID, keep bool) []graph.VertexID {
	inRow := make(map[graph.VertexID]bool, len(row))
	for _, v := range row {
		inRow[v] = true
	}
	out := []graph.VertexID{}
	for _, v := range in {
		if inRow[v] == keep {
			out = append(out, v)
		}
	}
	return out
}

// sameStart reports whether two non-empty slices start at the same address.
func sameStart(a, b []graph.VertexID) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// checkMerge runs f on (in, row) behind an arena prefix of sentinels and
// checks the result against the reference and the aliasing contract: the
// result is a prefix of in when nothing is dropped, a suffix of in when
// subtract drops only a leading run, and otherwise the tail the call
// appended to the arena; the arena's prefix is never written.
func checkMerge(t *testing.T, what string, f mergeFunc, subtracting bool, in, row []graph.VertexID) {
	t.Helper()
	const sentinel = graph.VertexID(1<<32 - 1)
	prefix := 3 + len(in)%5
	arena := make([]graph.VertexID, prefix, prefix+2) // small, so appends reallocate too
	for i := range arena {
		arena[i] = sentinel - graph.VertexID(i)
	}
	inCopy, rowCopy := slices.Clone(in), slices.Clone(row)
	out, grown := f(arena, in, row)

	want := naiveMerge(in, row, !subtracting)
	if !slices.Equal(out, want) {
		t.Fatalf("%s: in %v, row %v: got %v, want %v", what, in, row, out, want)
	}
	if !slices.Equal(in, inCopy) || !slices.Equal(row, rowCopy) {
		t.Fatalf("%s: the inputs were written", what)
	}
	if len(grown) < prefix {
		t.Fatalf("%s: grown arena of %d ids lost the %d-id prefix", what, len(grown), prefix)
	}
	for i := 0; i < prefix; i++ {
		if arena[i] != sentinel-graph.VertexID(i) || grown[i] != sentinel-graph.VertexID(i) {
			t.Fatalf("%s: arena[%d] below the start was written", what, i)
		}
	}
	switch {
	case len(want) == 0:
	case len(want) == len(in):
		if !sameStart(out, in) {
			t.Fatalf("%s: nothing dropped, but the result is not a prefix of in", what)
		}
	case subtracting && slices.Equal(want, in[len(in)-len(want):]):
		if !sameStart(out, in[len(in)-len(want):]) {
			t.Fatalf("%s: only a leading run dropped, but the result is not a suffix of in", what)
		}
	default:
		// intersect may still hand out a prefix of in when the row ran out
		// before in did.
		prefixOfIn := !subtracting && sameStart(out, in)
		if !prefixOfIn && (len(grown) != prefix+len(out) || !sameStart(out, grown[prefix:])) {
			t.Fatalf("%s: the result is neither a prefix of in nor the arena tail appended by the call", what)
		}
	}
}

// TestMergesMatchNaive runs intersect, subtract and both halves of each on
// seeded random ascending lists against a map-based reference, at sizes on
// both sides of mergeMax, with empty, one-element, disjoint and identical
// sides among them.
func TestMergesMatchNaive(t *testing.T) {
	ops := []struct {
		name        string
		f           mergeFunc
		subtracting bool
	}{
		{"intersect", intersect, false},
		{"mergeIntersect", mergeIntersect, false},
		{"gallopIntersect", gallopIntersect, false},
		{"subtract", subtract, true},
		{"mergeSubtract", mergeSubtract, true},
		{"gallopSubtract", gallopSubtract, true},
	}
	rng := rand.New(rand.NewSource(52))
	sizes := []int{0, 1, 2, 4, 7, 16, mergeMax - 1, mergeMax, mergeMax + 1, 64, 257}
	type pair struct {
		name    string
		in, row []graph.VertexID
	}
	var pairs []pair
	for _, a := range sizes {
		for _, b := range sizes {
			for _, gap := range []int{1, 3, 9} {
				for rep := 0; rep < 3; rep++ {
					pairs = append(pairs, pair{fmt.Sprintf("%dx%d gap %d", a, b, gap), ascending(rng, a, gap), ascending(rng, b, gap)})
				}
			}
		}
		xs := ascending(rng, a, 4)
		pairs = append(pairs, pair{fmt.Sprintf("identical %d", a), xs, slices.Clone(xs)})
		var evens, odds []graph.VertexID
		for i := 0; i < a; i++ {
			evens = append(evens, graph.VertexID(2*i))
			odds = append(odds, graph.VertexID(2*i+1))
		}
		pairs = append(pairs, pair{fmt.Sprintf("interleaved disjoint %d", a), evens, odds})
		above := make([]graph.VertexID, a)
		for i := range above {
			above[i] = graph.VertexID(10_000 + i)
		}
		pairs = append(pairs,
			pair{fmt.Sprintf("disjoint, in below %d", a), xs, above},
			pair{fmt.Sprintf("disjoint, in above %d", a), above, xs})
		if a > 0 {
			pairs = append(pairs,
				pair{fmt.Sprintf("one element of %d", a), xs, xs[a/2 : a/2+1]},
				pair{fmt.Sprintf("first element of %d", a), xs, xs[:1]},
				pair{fmt.Sprintf("last element of %d", a), xs, xs[a-1:]},
				pair{fmt.Sprintf("leading run of %d", a), xs, xs[:a/2+1]},
				pair{fmt.Sprintf("trailing run of %d", a), xs, xs[a/2:]})
		}
	}
	for _, op := range ops {
		for _, p := range pairs {
			checkMerge(t, op.name+" "+p.name, op.f, op.subtracting, p.in, p.row)
		}
	}
}

// mergeSink keeps BenchmarkMerge's results from being optimized away.
var mergeSink int

// BenchmarkMerge prices the two-pointer merge against the gallop on
// random ascending lists that span about the same ids, the shape of a
// stage's input against its row, at equal and at lopsided lengths. It is
// what mergeMax is chosen from: the largest length at which the merge is
// no slower than the gallop on every measured pair whose sides both fit.
//
//	go test -run '^$' -bench BenchmarkMerge ./internal/exec
func BenchmarkMerge(b *testing.B) {
	ops := []struct {
		name          string
		merge, gallop mergeFunc
	}{
		{"intersect", mergeIntersect, gallopIntersect},
		{"subtract", mergeSubtract, gallopSubtract},
	}
	for _, size := range [][2]int{{4, 4}, {16, 16}, {32, 32}, {64, 64}, {256, 256}, {2, 16}, {16, 2}, {4, 32}, {32, 4}, {2, 32}, {32, 2}, {8, 128}} {
		n, m := size[0], size[1]
		rng := rand.New(rand.NewSource(int64(n*1000 + m)))
		const lists = 64
		ins, rows := make([][]graph.VertexID, lists), make([][]graph.VertexID, lists)
		for i := range ins {
			// Both lists span about the same ids, so the shorter is sparser.
			ins[i], rows[i] = ascending(rng, n, 3*max(n, m)/n), ascending(rng, m, 3*max(n, m)/m)
		}
		arena := make([]graph.VertexID, 0, n)
		for _, op := range ops {
			for _, kind := range []struct {
				name string
				f    mergeFunc
			}{{"merge", op.merge}, {"gallop", op.gallop}} {
				b.Run(fmt.Sprintf("%s/%s/%dx%d", op.name, kind.name, n, m), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						out, _ := kind.f(arena, ins[i%lists], rows[i%lists])
						mergeSink += len(out)
					}
				})
			}
		}
	}
}
