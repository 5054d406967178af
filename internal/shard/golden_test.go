package shard

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counts.golden from the current tree")

const goldenPath = "testdata/counts.golden"

// poolQuery is one pattern of the Yeast K=4 pool, with the single-store
// embedding count it must reproduce.
type poolQuery struct {
	name string
	p    *graph.Graph
	v    graph.Variant
	want uint64
}

// yeastPool opens Yeast at K=4 and draws a pool shaped like the
// sharded-read workload's: perVariant patterns per class (sparse S8, S12,
// S16 and dense D4) and per variant (edge-induced, homomorphic), each with
// 1-100 embeddings on the single store and at most 20 000 twig rows. The
// draw is seeded, so the pool is the same on every run of the same tree.
func yeastPool(tb testing.TB, perVariant int) (*Coordinator, []poolQuery) {
	tb.Helper()
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	c, err := Open("yeast", ccsr.Build(g), Options{K: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	single := core.NewEngine(g)

	var pool []poolQuery
	rng := rand.New(rand.NewSource(7))
	for _, class := range []struct {
		size  int
		dense bool
	}{{8, false}, {12, false}, {16, false}, {4, true}} {
		cfg := dataset.PatternConfig{Size: class.size, Dense: class.dense}
		for _, v := range []graph.Variant{graph.EdgeInduced, graph.Homomorphic} {
			for n, draws := 0, 0; n < perVariant && draws < 2000; draws++ {
				p, err := dataset.SamplePattern(g, class.size, class.dense, rng)
				if err != nil {
					continue
				}
				res, err := single.Match(p, core.MatchOptions{Variant: v, Limit: 101})
				if err != nil || res.Embeddings < 1 || res.Embeddings > 100 {
					continue
				}
				sr, err := c.Match(context.Background(), p, MatchOptions{Variant: v})
				if err != nil || sr.Embeddings != res.Embeddings {
					tb.Fatalf("sharded match: %d embeddings, single store %d, err %v", sr.Embeddings, res.Embeddings, err)
				}
				if sr.Partials > 20000 {
					continue
				}
				pool = append(pool, poolQuery{fmt.Sprintf("%s#%d", cfg.Name(), n), p, v, res.Embeddings})
				n++
			}
		}
	}
	if len(pool) == 0 {
		tb.Fatal("no pattern admitted")
	}
	return c, pool
}

// TestCountsGolden pins what a sharded match does, not only what it finds:
// per pattern of the Yeast K=4 pool, the decomposition width, the twig rows
// the shards return, the join's probed candidates, the twig search steps
// summed over shards, and the embeddings. A change that claims not to alter
// the sharded search (less tracing, cheaper slabs) leaves this file
// byte-identical; a change that does alter it shows up as a reviewed diff.
// Regenerate with
//
//	go test ./internal/shard -run TestCountsGolden -update
func TestCountsGolden(t *testing.T) {
	c, pool := yeastPool(t, 16)
	var b bytes.Buffer
	fmt.Fprintln(&b, "# Coordinator.Match counters on Yeast at K=4 (scheme id), 16 patterns per class and variant.")
	fmt.Fprintln(&b, "# Regenerate: go test ./internal/shard -run TestCountsGolden -update")
	for _, q := range pool {
		res, err := c.Match(context.Background(), q.p, MatchOptions{Variant: q.v})
		if err != nil {
			t.Fatal(err)
		}
		if res.Embeddings != q.want {
			t.Fatalf("%s %s: %d embeddings, single store %d", q.name, q.v, res.Embeddings, q.want)
		}
		fmt.Fprintf(&b, "%s %s twigs=%d partials=%d join_candidates=%d steps=%d embeddings=%d\n",
			q.name, q.v, res.Twigs, res.Partials, res.JoinCandidates, res.Steps, res.Embeddings)
	}
	got := b.Bytes()

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
