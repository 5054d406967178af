package csce_test

// One benchmark per paper artifact (tables and figures of Section VII),
// each driving the corresponding experiment of internal/bench in reduced
// (Quick) mode, plus micro-benchmarks of the engine's building blocks.
// Run the full-size experiments with cmd/cscebench instead:
//
//	go run ./cmd/cscebench -exp all

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"csce"
	"csce/internal/bench"
	"csce/internal/ccsr"
	"csce/internal/dataset"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/plan"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := bench.Config{
		Out:               io.Discard,
		TimeLimit:         200 * time.Millisecond,
		PatternsPerConfig: 1,
		Quick:             true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Capabilities(b *testing.B)       { runExperiment(b, "table3") }
func BenchmarkTable4DatasetStats(b *testing.B)       { runExperiment(b, "table4") }
func BenchmarkFig6TotalTime(b *testing.B)            { runExperiment(b, "fig6") }
func BenchmarkFig7VariantComparison(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig8Throughput(b *testing.B)           { runExperiment(b, "fig8") }
func BenchmarkFig9EmbeddingScalability(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkFig10PlanScalability(b *testing.B)     { runExperiment(b, "fig10") }
func BenchmarkFig11CCSROverhead(b *testing.B)        { runExperiment(b, "fig11") }
func BenchmarkFig12SCEOccurrence(b *testing.B)       { runExperiment(b, "fig12") }
func BenchmarkFig13PlanQuality(b *testing.B)         { runExperiment(b, "fig13") }
func BenchmarkFig14SymmetryAndDensity(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkCaseStudyMotifClustering(b *testing.B) { runExperiment(b, "casestudy") }

// ---- CCSR read path (the cost Fig. 11 prices per task, per query here) ----

// BenchmarkReadCSR measures Algorithm 1's selection alone in its costliest
// serving-path case: a dense 8-vertex pattern on the Human analogue,
// vertex-induced, so every (ux,uy)*-cluster of every pattern vertex pair is
// selected. A view is a map of pointers to the store's own clusters, so
// B/op is that map and nothing sized by the graph; view-bytes/op is what
// those clusters hold, none of it copied.
func BenchmarkReadCSR(b *testing.B) {
	spec, _ := dataset.ByName("Human")
	g := spec.Generate()
	store := csce.NewEngine(g).Store()
	patterns, err := dataset.SamplePatterns(g, dataset.PatternConfig{Size: 8, Dense: true, Count: 8, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	var clusters, bytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := store.ReadCSR(patterns[i%len(patterns)], csce.VertexInduced)
		if err != nil {
			b.Fatal(err)
		}
		clusters += view.NumClusters()
		bytes += view.DecompressedBytes()
	}
	b.ReportMetric(float64(clusters)/float64(b.N), "clusters/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "view-bytes/op")
}

// rowLookupSink keeps BenchmarkRowLookup's lookups from being optimized away.
var rowLookupSink int

// BenchmarkRowLookup prices the jump-index probe and bucket search under
// every CSR.Row, on the largest cluster of each serving dataset. Half the
// probes are rows that exist and half are ids absent from the directory,
// the misses a negation test or a parent without neighbors in the cluster
// makes, all in shuffled order so the search path is cold in the branch
// predictor the way a matching order's parents are.
func BenchmarkRowLookup(b *testing.B) {
	for _, name := range []string{"Yeast", "Human", "Patent"} {
		spec, _ := dataset.ByName(name)
		g := spec.Generate()
		store := csce.NewEngine(g).Store()
		var key ccsr.Key
		for _, k := range store.Keys() {
			if store.ClusterSize(k) > store.ClusterSize(key) {
				key = k
			}
		}
		pb := graph.NewBuilder(g.Directed())
		pb.AddVertex(key.Src)
		pb.AddVertex(key.Dst)
		pb.AddEdge(0, 1, key.Edge)
		view, err := store.ReadCSR(pb.MustBuild(), csce.EdgeInduced)
		if err != nil {
			b.Fatal(err)
		}
		csr := view.Cluster(key).Out
		rows := csr.NonEmptyRows()
		rng := rand.New(rand.NewSource(1))
		var absent []graph.VertexID
		for v, i := graph.VertexID(0), 0; len(absent) < len(rows) || i < len(rows); v++ {
			if i < len(rows) && rows[i] == v {
				i++
			} else {
				absent = append(absent, v)
			}
		}
		rng.Shuffle(len(absent), func(i, j int) { absent[i], absent[j] = absent[j], absent[i] })
		probes := append(append([]graph.VertexID(nil), rows...), absent[:len(rows)]...)
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
		hits := 0
		for _, v := range probes {
			if len(csr.Row(v)) > 0 {
				hits++
			}
		}
		if hits != len(rows) {
			b.Fatalf("%s: %d of %d probes found a row, want the %d that exist", name, hits, len(probes), len(rows))
		}
		b.Run(fmt.Sprintf("%s/rows=%d", name, len(rows)), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total += len(csr.Row(probes[i%len(probes)]))
			}
			rowLookupSink = total
		})
	}
}

// ---- engine micro-benchmarks ----

func yeastFixture(b *testing.B) (*csce.Graph, *csce.Engine, []*csce.Graph) {
	b.Helper()
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	engine := csce.NewEngine(g)
	patterns, err := dataset.SamplePatterns(g, dataset.PatternConfig{Size: 8, Dense: true, Count: 3, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	return g, engine, patterns
}

// BenchmarkClusterBuild measures the offline CCSR construction stage.
func BenchmarkClusterBuild(b *testing.B) {
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = csce.NewEngine(g)
	}
}

// BenchmarkMatchEdgeInduced measures a full match (read + plan + execute)
// of a dense 8-vertex pattern on the Yeast analogue.
func BenchmarkMatchEdgeInduced(b *testing.B) {
	_, engine, patterns := yeastFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := patterns[i%len(patterns)]
		if _, err := engine.Match(p, csce.MatchOptions{Variant: csce.EdgeInduced}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchVertexInduced covers the negation-checking path.
func BenchmarkMatchVertexInduced(b *testing.B) {
	_, engine, patterns := yeastFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := patterns[i%len(patterns)]
		if _, err := engine.Match(p, csce.MatchOptions{Variant: csce.VertexInduced}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchHomomorphic covers the non-injective path with
// factorized counting.
func BenchmarkMatchHomomorphic(b *testing.B) {
	_, engine, patterns := yeastFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := patterns[i%len(patterns)]
		if _, err := engine.Match(p, csce.MatchOptions{Variant: csce.Homomorphic, TimeLimit: time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCECacheAblation quantifies the candidate-reuse speedup the
// SCE cache provides on the same workload.
func BenchmarkSCECacheAblation(b *testing.B) {
	_, engine, patterns := yeastFixture(b)
	for _, disabled := range []bool{false, true} {
		name := "cache-on"
		if disabled {
			name = "cache-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := patterns[i%len(patterns)]
				_, err := engine.Match(p, csce.MatchOptions{
					Variant:         csce.EdgeInduced,
					DisableSCECache: disabled,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalUpdate measures InsertEdge+DeleteEdge round trips
// against the clustered index, including amortized compactions.
func BenchmarkIncrementalUpdate(b *testing.B) {
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	engine := csce.NewEngine(g)
	rng := rand.New(rand.NewSource(5))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := csce.VertexID(rng.Intn(n))
		dst := csce.VertexID(rng.Intn(n))
		if src == dst {
			continue
		}
		if err := engine.InsertEdge(src, dst, 7); err != nil {
			continue // already present from an earlier iteration
		}
		if err := engine.DeleteEdge(src, dst, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaMatching measures one continuous-matching event: insert
// an edge, enumerate the new embeddings of an 8-vertex pattern, delete it.
func BenchmarkDeltaMatching(b *testing.B) {
	g, engine, patterns := yeastFixture(b)
	p := patterns[0]
	rng := rand.New(rand.NewSource(9))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := csce.VertexID(rng.Intn(n))
		dst := csce.VertexID(rng.Intn(n))
		if src == dst {
			continue
		}
		if err := engine.InsertEdge(src, dst, 0); err != nil {
			continue
		}
		_, err := csce.NewEmbeddings(engine, p, csce.DeltaEdge{Src: src, Dst: dst},
			csce.DeltaOptions{Variant: csce.EdgeInduced})
		if err != nil {
			b.Fatal(err)
		}
		if err := engine.DeleteEdge(src, dst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParse measures MATCH-query compilation.
func BenchmarkQueryParse(b *testing.B) {
	g, _ := csce.ParseGraph(strings.NewReader("t directed\nv 0 A\nv 1 B\ne 0 1 r\n"))
	const q = "MATCH (a:A)-[:r]->(b:B), (c:A)-[:r]->(b), (a)-[:r]->(d:B), (c)-[:r]->(d)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := csce.ParseQuery(q, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHigherOrderWeights measures G_P construction (triangle weights
// on the Yeast analogue).
func BenchmarkHigherOrderWeights(b *testing.B) {
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	engine := csce.NewEngine(g)
	p := csce.Clique(3, g.Label(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := engine.BuildHigherOrder(p, csce.HigherOrderOptions{
			Variant:              csce.EdgeInduced,
			CountAutomorphicOnce: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanOptimization isolates GCF + DAG + LDSF for a 64-vertex
// pattern.
func BenchmarkPlanOptimization(b *testing.B) {
	spec, _ := dataset.ByName("Patent")
	spec.Vertices = 5000
	spec.TargetEdges = 45000
	spec.Name = "Patent-bench"
	g := spec.Generate()
	engine := csce.NewEngine(g)
	rng := rand.New(rand.NewSource(13))
	p, err := dataset.SamplePattern(g, 64, false, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.PlanOnly(p, csce.EdgeInduced); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanOptimizationN2000 is the Fig. 10 regime: optimization alone
// of a sparse 2 000-vertex pattern on the Patent analogue, once per
// variant. edge and homomorphic share the edge-only dependency DAG;
// vertex adds the negation dependencies, whose pairwise scan over the
// order is quadratic in the pattern size.
func BenchmarkPlanOptimizationN2000(b *testing.B) {
	spec, _ := dataset.ByName("Patent")
	g := spec.Generate()
	engine := csce.NewEngine(g)
	p, err := dataset.SamplePattern(g, 2000, false, rand.New(rand.NewSource(13)))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		variant csce.Variant
	}{{"edge", csce.EdgeInduced}, {"homomorphic", csce.Homomorphic}, {"vertex", csce.VertexInduced}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.PlanOnly(p, c.variant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanOptimizationSmall measures the plans the serving paths pay
// per query on Yeast. twig plans sparse 2-6 vertex patterns
// homomorphically, as a sharded match plans every twig on every shard;
// pool plans dense and sparse 8-32 vertex patterns under every variant, as
// a match on a freshly mutated epoch misses the plan cache. ns/plan divides by the
// plans per iteration.
func BenchmarkPlanOptimizationSmall(b *testing.B) {
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	store := csce.NewEngine(g).Store()
	sample := func(sizes []int, kinds ...bool) []*graph.Graph {
		var out []*graph.Graph
		for _, n := range sizes {
			for _, dense := range kinds {
				ps, err := dataset.SamplePatterns(g, dataset.PatternConfig{Size: n, Dense: dense, Count: 4, Seed: 41})
				if err != nil {
					b.Fatal(err)
				}
				out = append(out, ps...)
			}
		}
		return out
	}
	run := func(b *testing.B, patterns []*graph.Graph, variants []graph.Variant) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range patterns {
				for _, v := range variants {
					if _, err := plan.Optimize(p, store, v, plan.ModeCSCE); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		plans := len(patterns) * len(variants)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*plans), "ns/plan")
	}
	b.Run("twig", func(b *testing.B) {
		run(b, sample([]int{2, 3, 4, 5, 6}, false), []graph.Variant{graph.Homomorphic})
	})
	b.Run("pool", func(b *testing.B) {
		run(b, sample([]int{8, 16, 24, 32}, false, true), graph.Variants())
	})
}

// BenchmarkBuildVertexInduced isolates the executor on vertex-induced dense
// patterns on the Patent analogue, the kernel-large regime where every
// earlier pattern vertex is a dependency parent, so candidate builds (the
// intersections and negation filters) dominate. View and plan are prepared
// once; ns/build divides the search time by the builds it performed.
func BenchmarkBuildVertexInduced(b *testing.B) {
	spec, _ := dataset.ByName("Patent")
	g := spec.Generate()
	store := csce.NewEngine(g).Store()
	patterns, err := dataset.SamplePatterns(g, dataset.PatternConfig{Size: 16, Dense: true, Count: 4, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	type task struct {
		view *ccsr.View
		pl   *plan.Plan
	}
	var tasks []task
	for _, p := range patterns {
		view, err := store.ReadCSR(p, csce.VertexInduced)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := plan.Optimize(p, store, csce.VertexInduced, plan.ModeCSCE)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, task{view, pl})
	}
	var builds uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tasks[i%len(tasks)]
		st, err := exec.Run(t.view, t.pl, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		builds += st.CandidateBuilds
	}
	b.ReportMetric(float64(builds)/float64(b.N), "builds/op")
	if builds > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(builds), "ns/build")
	}
}
