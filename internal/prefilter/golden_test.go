package prefilter

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/dataset"
	"csce/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/decisions.golden from the current tree")

const decisionsGoldenPath = "testdata/decisions.golden"

// TestDecisionsGolden pins the cascade's full Decision — rejecting filter,
// Checked depth, labels, MinCount, Needed, Have and the rendered reason —
// for seeded Yeast and Human patterns under all three variants, plus
// impossible mutants of each that reject at every tier of the cascade. A
// change to how CheckMany compiles or probes that claims the same answers
// leaves this file byte-identical. Regenerate with
//
//	go test ./internal/prefilter -run TestDecisionsGolden -update
func TestDecisionsGolden(t *testing.T) {
	got, tiers := goldenDecisions(t)
	for _, f := range Filters() {
		if tiers[f] == 0 {
			t.Errorf("no golden case rejects at %s; the corpus must cover every tier", f)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(decisionsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decisionsGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(decisionsGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < max(len(gl), len(wl)) && diffs < 10; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			diffs++
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, g, w)
		}
	}
	t.Fatalf("%s differs from the current tree; if the change is intended, regenerate with -update and review the diff", decisionsGoldenPath)
}

// goldenDecisionClasses reach D32, where the compile step's sorts and
// dedup scans see the most pattern vertices and edges.
var goldenDecisionClasses = []struct {
	size  int
	dense bool
}{{4, true}, {8, true}, {16, true}, {32, true}, {8, false}, {16, false}}

// goldenDecisions renders one line per (pattern, variant) and returns how
// many lines rejected at each filter.
func goldenDecisions(t *testing.T) ([]byte, map[Filter]int) {
	tiers := map[Filter]int{}
	var b bytes.Buffer
	fmt.Fprintln(&b, "# prefilter.Check decisions for seeded patterns and impossible mutants of them.")
	fmt.Fprintln(&b, "# Regenerate: go test ./internal/prefilter -run TestDecisionsGolden -update")
	emit := func(name string, p *graph.Graph, sig *Signature) {
		for _, variant := range graph.Variants() {
			d := sig.Check(p, variant)
			if !d.Admit {
				tiers[d.Filter]++
			}
			fmt.Fprintf(&b, "%s %s %+v reason=%q\n", name, variant, d, d.Reason(nil))
		}
	}
	for _, dsName := range []string{"Yeast", "Human"} {
		spec, _ := dataset.ByName(dsName)
		g := spec.Generate()
		sig := Build(ccsr.Build(g))
		fresh := graph.Label(g.VertexLabelCount() + 1)
		for _, c := range goldenDecisionClasses {
			cfg := dataset.PatternConfig{Size: c.size, Dense: c.dense, Count: 3, Seed: 2033}
			patterns, err := dataset.SamplePatterns(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range patterns {
				name := fmt.Sprintf("%s %s#%d", dsName, cfg.Name(), i)
				emit(name+" seeded", p, sig)
				// Vertex 0 relabeled to a label the graph lacks: its edges
				// name a label pair no data edge has.
				emit(name+" fresh-label", mutate(t, p, func(v graph.VertexID, l graph.Label) graph.Label {
					if v == 0 {
						return fresh
					}
					return l
				}, nil, 0), sig)
				// Every edge carries edge label 1: the label pairs exist, the
				// clusters do not (the datasets are edge-unlabeled).
				emit(name+" edge-label", mutate(t, p, nil, func(graph.EdgeLabel) graph.EdgeLabel { return 1 }, 0), sig)
				// One isolated vertex of a missing label: only the degree
				// filter's frequency case sees it.
				emit(name+" isolated-fresh", mutate(t, p, nil, nil, fresh), sig)
				// A star around vertex 0's label with k leaves of its first
				// neighbor's label, for the smallest k the cascade rejects.
				if star := firstRejectedStar(t, p, sig); star != nil {
					emit(name+" star", star, sig)
				}
				// The fewest disjoint copies of the pattern the cascade
				// rejects: a shortfall of count, not of existence.
				if copies := firstRejectedCopies(t, p, sig); copies != nil {
					emit(name+" copies", copies, sig)
				}
			}
		}
	}
	return b.Bytes(), tiers
}

// mutate copies p with relabeled vertices and edges, plus one extra
// isolated vertex of label extra when extra is nonzero.
func mutate(t *testing.T, p *graph.Graph, vl func(graph.VertexID, graph.Label) graph.Label,
	el func(graph.EdgeLabel) graph.EdgeLabel, extra graph.Label) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(p.Directed())
	for v := 0; v < p.NumVertices(); v++ {
		l := p.Label(graph.VertexID(v))
		if vl != nil {
			l = vl(graph.VertexID(v), l)
		}
		b.AddVertex(l)
	}
	if extra != 0 {
		b.AddVertex(extra)
	}
	p.Edges(func(v, w graph.VertexID, l graph.EdgeLabel) {
		if el != nil {
			l = el(l)
		}
		b.AddEdge(v, w, l)
	})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// firstRejectedStar grows a star whose center has vertex 0's label and
// whose leaves have its first neighbor's label until the edge-induced
// cascade rejects it; a star the data graph can carry is what makes the
// degree and WL-1 tiers reachable.
func firstRejectedStar(t *testing.T, p *graph.Graph, sig *Signature) *graph.Graph {
	t.Helper()
	nbrs := p.Out(0)
	if len(nbrs) == 0 {
		return nil
	}
	center, leaf := p.Label(0), p.Label(nbrs[0].To)
	for k := 1; k <= 512; k++ {
		b := graph.NewBuilder(p.Directed())
		c := b.AddVertex(center)
		for i := 0; i < k; i++ {
			b.AddEdge(c, b.AddVertex(leaf), 0)
		}
		star, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !sig.Check(star, graph.EdgeInduced).Admit {
			return star
		}
	}
	return nil
}

// firstRejectedCopies returns the disjoint union of the fewest copies of p
// (up to 64) that the edge-induced cascade rejects.
func firstRejectedCopies(t *testing.T, p *graph.Graph, sig *Signature) *graph.Graph {
	t.Helper()
	n := p.NumVertices()
	for k := 2; k <= 64; k++ {
		b := graph.NewBuilder(p.Directed())
		for c := 0; c < k; c++ {
			for v := 0; v < n; v++ {
				b.AddVertex(p.Label(graph.VertexID(v)))
			}
			base := graph.VertexID(c * n)
			p.Edges(func(v, w graph.VertexID, l graph.EdgeLabel) { b.AddEdge(base+v, base+w, l) })
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !sig.Check(g, graph.EdgeInduced).Admit {
			return g
		}
	}
	return nil
}
