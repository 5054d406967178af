package graph

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzParse holds the text parser to its contract on arbitrary bytes: it
// returns an error or a graph that round-trips through Format, and it never
// panics. The seeds are every malformed input the other tests name plus the
// tokenizer's edge cases; a plain `go test` replays them.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// TestParseErrors.
		"v 0 A\n",
		"t directed\nv 0 A\nv 2 B\n",
		"t directed\nv 0 A\nv 0 B\nv 1 C\n",
		"t directed\nx 1 2\n",
		"t sideways\n",
		"t directed\nv 0 A\ne 0 3\n",
		// Record shapes and numbers strconv.Atoi accepts or refuses.
		"t undirected\nv 0 A\nv 1 B\ne 0 1\n",
		"t directed\nv +1 A\nv -0 B\ne 0 +1 knows\n",
		"t undirected\nv -1 A\n",
		"t undirected\nv 1 A\nv 1 B\n",
		"t undirected\nv 0 A\nv 1 B\ne 0 1 x y\n",
		"t undirected\nv 0 A\ne 0\n",
		"t undirected\nv 0 A B\n",
		"t\n",
		"t directed extra\n",
		"t undirected\nv 9223372036854775807 A\n",
		"t undirected\nv 9223372036854775808 A\n",
		"t undirected\nv 0x1 A\n",
		"t undirected\nv 1_0 A\n",
		"t undirected\nv 0 A\nv 1 A\ne 0 0\n",
		// White space, comments and line ends.
		"# comment\n  t \t undirected  \r\n\n v 0 #A\n",
		"t undirected\nv 0 A\nv 1 B\ne 0\u00851\n",
		"t undirected\nv 0 \xff\nv 1 \xfe\xfe\ne 1 0 \xc3\n",
		"t undirected\rv 0 A\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Format(&first, g); err != nil {
			t.Fatalf("Format of a parsed graph: %v", err)
		}
		g2, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse of Format output: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := Format(&second, g2); err != nil {
			t.Fatal(err)
		}
		// Parallel edges with different labels print in label-value order,
		// and a reparse interns names in print order, so the two texts agree
		// as sets of lines.
		if a, b := sortedLines(first.String()), sortedLines(second.String()); !slices.Equal(a, b) {
			t.Fatalf("round trip changed the graph:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

func sortedLines(s string) []string {
	lines := strings.Split(s, "\n")
	slices.Sort(lines)
	return lines
}

// TestParseAllocsScaleWithVertices keeps per-line allocation out of the
// parser: a dense 32-vertex pattern costs allocations in proportion to its
// vertices, and padding it with comments,
// blank lines and repeated edges adds none.
func TestParseAllocsScaleWithVertices(t *testing.T) {
	const n = 32
	base, lines := denseText(n)
	var padded strings.Builder
	padded.WriteString(base)
	for i := 0; i < 2*lines; i++ {
		fmt.Fprintf(&padded, "# padding %d\n\n", i)
	}
	names := NewLabelTable()
	parse := func(s string) func() {
		return func() {
			if _, err := ParseStringWith(s, names); err != nil {
				t.Fatal(err)
			}
		}
	}
	parse(base)() // intern the labels once
	allocs := testing.AllocsPerRun(50, parse(base))
	t.Logf("%d vertices, %d lines: %.0f allocations", n, lines, allocs)
	if allocs > 2*n {
		t.Errorf("parsing %d vertices / %d lines allocates %.0f times, want at most %d (O(vertices))", n, lines, allocs, 2*n)
	}
	if pad := testing.AllocsPerRun(50, parse(padded.String())); pad > allocs {
		t.Errorf("%d comment and blank lines raised allocations from %.0f to %.0f; want no per-line allocation", 4*lines, allocs, pad)
	}
}

// denseText renders an n-vertex pattern with three edges in four of all
// vertex pairs, and returns it with its line count.
func denseText(n int) (string, int) {
	var text strings.Builder
	text.WriteString("t undirected\n")
	for v := 0; v < n; v++ {
		fmt.Fprintf(&text, "v %d L%d\n", v, v%5)
	}
	lines := n + 1
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if (v*7+w*3)%4 != 0 {
				fmt.Fprintf(&text, "e %d %d\n", v, w)
				lines++
			}
		}
	}
	return text.String(), lines
}

// BenchmarkParseDense32 is a pattern parse as a D32 match request pays it.
func BenchmarkParseDense32(b *testing.B) {
	text, _ := denseText(32)
	names := NewLabelTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStringWith(text, names); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseErrorMessages pins the parser's error text for every malformed
// record, so a tokenizer change cannot reword or reorder them.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct{ text, want string }{
		{"v 0 A\n", `graph: missing "t directed|undirected" header`},
		{"t\n", `graph: line 1: want "t directed|undirected"`},
		{"t sideways\n", `graph: line 1: unknown graph type "sideways"`},
		{"t undirected\nv 0\n", `graph: line 2: want "v id label"`},
		{"t undirected\nv -1 A\n", `graph: line 2: bad vertex id "-1"`},
		{"t undirected\nv 0x1 A\n", `graph: line 2: bad vertex id "0x1"`},
		{"t undirected\nv 9223372036854775808 A\n", `graph: line 2: bad vertex id "9223372036854775808"`},
		{"t undirected\nv 0 A\ne 0\n", `graph: line 3: want "e src dst [label]"`},
		{"t undirected\nv 0 A\ne 0 1 x y\n", `graph: line 3: want "e src dst [label]"`},
		{"t undirected\nv 0 A\ne 0 +x\n", "graph: line 3: bad edge endpoints"},
		{"# c\n\nt directed\nx 1 2\n", `graph: line 4: unknown record "x"`},
		{"t directed\nv 0 A\nv 2 B\n", "graph: vertex ids not dense: 2 declarations, max id 2"},
		{"t directed\nv 1 A\nv 1 B\n", "graph: vertex 1 declared twice"},
		{"t directed\nv 0 A\ne 0 3\n", "graph: edge (0,3) references undeclared vertex"},
		{"t directed\nv 0 A\ne 0 0\n", "graph: self-loop on vertex 0 is not allowed"},
	}
	for _, c := range cases {
		_, err := ParseString(c.text)
		if err == nil || err.Error() != c.want {
			t.Errorf("ParseString(%q) error = %v, want %s", c.text, err, c.want)
		}
	}
	if g, err := ParseString("t directed\nv +1 A\nv -0 B\ne +0 01\n"); err != nil || g.NumEdges() != 1 {
		t.Errorf("signed and zero-padded IDs: %v", err)
	}
}
