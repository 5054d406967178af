package bench

import (
	"fmt"
	"time"

	"csce/internal/core"
	"csce/internal/delta"
	"csce/internal/graph"
)

// runAblation quantifies each CSCE design choice in isolation on the same
// workload: SCE candidate caching, factorized counting, NEC sharing (via
// the cache), and the cluster index (approximated by the RI-vs-RI+Cluster
// plan gap measured in Fig. 13). This experiment is not a paper artifact;
// it substantiates the design-decision claims in DESIGN.md.
func runAblation(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	// Sparse unlabeled patterns on the DIP analogue create the conditionally
	// independent regions SCE exploits; a fixed embedding budget keeps the
	// comparison bounded while still being large enough for the
	// optimizations to matter.
	spec := quickSpec(mustSpec("DIP"), cfg)
	g, engine := loadEngine(spec)

	size := 7
	var countBudget uint64 = 2_000_000
	if cfg.Quick {
		size = 5
		countBudget = 100_000
	}
	patterns, err := samplePatterns(g, size, false, cfg.PatternsPerConfig, 2000)
	if err != nil {
		return err
	}

	type variantRun struct {
		name string
		opts core.MatchOptions
	}
	runs := []variantRun{
		{"full", core.MatchOptions{}},
		{"no-sce-cache", core.MatchOptions{DisableSCECache: true}},
		{"no-factorization", core.MatchOptions{DisableFactorization: true}},
		{"neither", core.MatchOptions{DisableSCECache: true, DisableFactorization: true}},
	}
	header(w, "Ablation: SCE optimizations on DIP sparse patterns (bounded count)",
		"Config", "MeanTime", "Steps", "Builds", "Reuses", "NECShares", "Factorized")
	for _, r := range runs {
		var total time.Duration
		var steps, builds, reuses, nec, fact uint64
		for _, p := range patterns {
			opts := r.opts
			opts.Variant = graph.EdgeInduced
			opts.TimeLimit = cfg.TimeLimit
			opts.Limit = countBudget
			res, err := engine.Match(p, opts)
			if err != nil {
				return err
			}
			total += csceTotalOrLimit(res, cfg)
			steps += res.Exec.Steps
			builds += res.Exec.CandidateBuilds
			reuses += res.Exec.CandidateReuses
			nec += res.Exec.NECShares
			fact += res.Exec.FactorizedLevels
		}
		cell(w, r.name, total/time.Duration(len(patterns)), steps, builds, reuses, nec, fact)
	}
	return nil
}

// runExtensions measures the extension subsystems: incremental update
// throughput, and continuous (delta) matching against full recounting.
func runExtensions(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	spec := quickSpec(mustSpec("Yeast"), cfg)
	g, engine := loadEngine(spec)
	size := 10
	if cfg.Quick {
		size = 8
	}
	// The delta table matches the first of these.
	patterns, err := samplePatterns(g, size, true, cfg.PatternsPerConfig, 2100)
	if err != nil {
		return err
	}

	// ---- incremental updates ----
	header(w, "Extension: incremental CCSR updates (Yeast)",
		"Operation", "Ops", "TotalTime", "PerOp")
	const ops = 3000
	start := time.Now()
	var inserted [][2]graph.VertexID
	n := g.NumVertices()
	for i := 0; len(inserted) < ops; i++ {
		src := graph.VertexID((i * 7919) % n)
		dst := graph.VertexID((i*104729 + 1) % n)
		if src == dst {
			continue
		}
		if err := engine.InsertEdge(src, dst, 9); err != nil {
			continue
		}
		inserted = append(inserted, [2]graph.VertexID{src, dst})
	}
	insertTime := time.Since(start)
	cell(w, "insert", len(inserted), insertTime, insertTime/time.Duration(len(inserted)))
	start = time.Now()
	for _, e := range inserted {
		if err := engine.DeleteEdge(e[0], e[1], 9); err != nil {
			return err
		}
	}
	deleteTime := time.Since(start)
	cell(w, "delete", len(inserted), deleteTime, deleteTime/time.Duration(len(inserted)))

	// ---- continuous matching vs recount ----
	header(w, "Extension: delta matching vs full recount (Yeast)",
		"Method", "Events", "TotalTime", "PerEvent")
	p := patterns[0]
	events := 50
	if cfg.Quick {
		events = 10
	}
	// Delta path.
	start = time.Now()
	processed := 0
	for i := 0; processed < events; i++ {
		src := graph.VertexID((i * 6151) % n)
		dst := graph.VertexID((i*13007 + 3) % n)
		if src == dst {
			continue
		}
		if err := engine.InsertEdge(src, dst, 0); err != nil {
			continue
		}
		if _, err := delta.NewEmbeddings(engine.Store(), p, delta.Edge{Src: src, Dst: dst},
			delta.Options{Variant: graph.EdgeInduced}); err != nil {
			return err
		}
		if err := engine.DeleteEdge(src, dst, 0); err != nil {
			return err
		}
		processed++
	}
	deltaTime := time.Since(start)
	cell(w, "delta", processed, deltaTime, deltaTime/time.Duration(processed))
	// Recount path (same events, full matching per event).
	start = time.Now()
	processed = 0
	for i := 0; processed < events; i++ {
		src := graph.VertexID((i * 6151) % n)
		dst := graph.VertexID((i*13007 + 3) % n)
		if src == dst {
			continue
		}
		if err := engine.InsertEdge(src, dst, 0); err != nil {
			continue
		}
		if _, err := engine.Match(p, core.MatchOptions{Variant: graph.EdgeInduced, TimeLimit: cfg.TimeLimit}); err != nil {
			return err
		}
		if err := engine.DeleteEdge(src, dst, 0); err != nil {
			return err
		}
		processed++
	}
	recountTime := time.Since(start)
	cell(w, "recount", processed, recountTime, recountTime/time.Duration(processed))
	if deltaTime < recountTime {
		fmt.Fprintf(w, "# delta matching is %.1fx faster per event\n",
			float64(recountTime)/float64(deltaTime))
	}
	return nil
}
