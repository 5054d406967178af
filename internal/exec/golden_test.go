package exec

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/plan"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counts.golden from the current tree")

const goldenPath = "testdata/counts.golden"

// TestCountsGolden pins what the search does, not only what it finds: the
// exact Stats counters of seeded patterns on Yeast and Human under all three
// variants, and a digest of every plan mode's order, dependency DAG,
// descendant sizes, NEC classes and SCE statistics, plus edge-induced
// plan-only S64-S2000 patterns on Yeast and edge-induced and homomorphic
// plan-only S500-S2000 patterns on Patent. A change that claims not to alter
// the search (a faster intersection, a cheaper planner) leaves this file
// byte-identical; a change that does alter it shows up as a reviewed diff.
// Regenerate with
//
//	go test ./internal/exec -run TestCountsGolden -update
func TestCountsGolden(t *testing.T) {
	got := goldenCounts(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
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
	t.Fatalf("%s differs from the current tree; if the change is intended, regenerate with -update and review the diff", goldenPath)
}

// goldenClasses are the executed pattern classes: small enough that every
// variant runs to completion in milliseconds, dense enough that
// vertex-induced levels carry several negation parents.
var goldenClasses = []struct {
	size  int
	dense bool
}{{4, true}, {6, true}, {8, true}, {4, false}, {6, false}, {8, false}}

// goldenPlanOnly are the Fig. 10 sizes, planned edge-induced (as the
// kernel-large plan-only tasks are) but not executed.
var goldenPlanOnly = []int{64, 200, 500, 1000, 2000}

// goldenPatentPlanOnly are the large plan-only sizes again on Patent, the
// kernel-large data graph, whose cluster sizes drive the Eq. 2 and LDSF
// tie-breakers there.
var goldenPatentPlanOnly = []int{500, 1000, 2000}

var goldenModes = []plan.Mode{plan.ModeCSCE, plan.ModeRI, plan.ModeRICluster, plan.ModeRM, plan.ModeCostBased}

func goldenCounts(t *testing.T) []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, "# exec.Run counters of ModeCSCE plans, and a digest over all five plan modes")
	fmt.Fprintln(&b, "# (order, DAG in/out lists, descendant sizes, NEC classes, SCE stats).")
	fmt.Fprintln(&b, "# Regenerate: go test ./internal/exec -run TestCountsGolden -update")
	for _, name := range []string{"Yeast", "Human"} {
		spec, _ := dataset.ByName(name)
		g := spec.Generate()
		store := ccsr.Build(g)
		for _, c := range goldenClasses {
			cfg := dataset.PatternConfig{Size: c.size, Dense: c.dense, Count: 5, Seed: 2028}
			patterns, err := dataset.SamplePatterns(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range patterns {
				for _, variant := range graph.Variants() {
					view, err := store.ReadCSR(p, variant)
					if err != nil {
						t.Fatal(err)
					}
					pl, digest := goldenPlans(t, p, store, variant)
					st, err := Run(view, pl, Options{})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "%s %s#%d %s embeddings=%d steps=%d builds=%d reuses=%d nec=%d factorized=%d plans=%016x\n",
						name, cfg.Name(), i, variant, st.Embeddings, st.Steps, st.CandidateBuilds,
						st.CandidateReuses, st.NECShares, st.FactorizedLevels, digest)
				}
			}
		}
	}
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	store := ccsr.Build(g)
	for _, n := range goldenPlanOnly {
		cfg := dataset.PatternConfig{Size: n, Count: 1, Seed: 2028}
		patterns, err := dataset.SamplePatterns(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, digest := goldenPlans(t, patterns[0], store, graph.EdgeInduced)
		fmt.Fprintf(&b, "Yeast %s#0 %s plan-only plans=%016x\n", cfg.Name(), graph.EdgeInduced, digest)
	}
	spec, _ = dataset.ByName("Patent")
	g = spec.Generate()
	store = ccsr.Build(g)
	for _, n := range goldenPatentPlanOnly {
		cfg := dataset.PatternConfig{Size: n, Count: 1, Seed: 2028}
		patterns, err := dataset.SamplePatterns(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
			_, digest := goldenPlans(t, patterns[0], store, variant)
			fmt.Fprintf(&b, "Patent %s#0 %s plan-only plans=%016x\n", cfg.Name(), variant, digest)
		}
	}
	return b.Bytes()
}

// goldenPlans optimizes p under every mode and returns the ModeCSCE plan
// with a digest of all of them.
func goldenPlans(t *testing.T, p *graph.Graph, store *ccsr.Store, variant graph.Variant) (*plan.Plan, uint64) {
	t.Helper()
	h := fnv.New64a()
	var csce *plan.Plan
	for _, mode := range goldenModes {
		pl, err := plan.Optimize(p, store, variant, mode)
		if err != nil {
			t.Fatal(err)
		}
		if mode == plan.ModeCSCE {
			csce = pl
		}
		digestPlan(h, pl)
	}
	return csce, h.Sum64()
}

func digestPlan(h hash.Hash64, pl *plan.Plan) {
	var buf []byte
	put := func(xs ...int) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	}
	put(-1, int(pl.Mode), len(pl.Order))
	for _, u := range pl.Order {
		put(int(u))
	}
	for v := 0; v < pl.DAG.N(); v++ {
		put(-2, len(pl.DAG.In(v)))
		for _, w := range pl.DAG.In(v) {
			put(int(w))
		}
		put(-3, len(pl.DAG.Out(v)))
		for _, w := range pl.DAG.Out(v) {
			put(int(w))
		}
	}
	put(-4)
	put(pl.DescendantSizes...)
	for _, class := range pl.NECClasses {
		put(-5)
		for _, u := range class {
			put(int(u))
		}
	}
	s := pl.SCE
	put(-6, s.SCEVertices, s.ClusterSCEVertices, s.IndependentPairs, s.TotalPairs, s.PatternVertices)
	h.Write(buf)
}
