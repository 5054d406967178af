package bench

import (
	"fmt"
	"math/rand"
	"time"

	"csce/internal/core"
	"csce/internal/graph"
	"csce/internal/plan"
)

// runFig10 measures plan-generation scalability: time and memory of the
// full optimization pipeline for patterns up to 2000 vertices on the
// Patent analogue relabeled with 2000 labels, for all three variants
// (Finding 10: up to 2000 vertices within the paper's budget;
// homomorphism optimizes fastest because its DAG carries no negation
// dependencies).
func runFig10(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	spec := quickSpec(mustSpec("Patent").WithLabels(2000), cfg)
	g, engine := loadEngine(spec)

	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1000, 2000}
	if cfg.Quick {
		sizes = []int{8, 16, 32, 64}
	}
	header(w, "Fig. 10: plan generation scalability (Patent, 2000 labels)",
		"PatternSize", "Variant", "PlanTime", "PlanMemMB")
	rng := rand.New(rand.NewSource(1000))
	for _, size := range sizes {
		if size >= g.NumVertices() {
			fmt.Fprintf(w, "# size %d exceeds the scaled data graph (skipped)\n", size)
			continue
		}
		p, err := sampleAnyPattern(g, size, rng)
		if err != nil {
			fmt.Fprintf(w, "# size %d: %v (skipped)\n", size, err)
			continue
		}
		for _, variant := range graph.Variants() {
			var planTime time.Duration
			mem := heapDelta(func() {
				_, t, err2 := engine.PlanOnly(p, variant)
				planTime = t
				err = err2
			})
			if err != nil {
				return err
			}
			cell(w, size, variant, planTime, fmt.Sprintf("%.2f", float64(mem)/1e6))
		}
	}
	return nil
}

// runFig11 measures CCSR read overhead: ReadCSR time and the bytes of the
// clusters it selects (referenced in place, not expanded) across data graph label counts (20/200/2000) and pattern sizes
// (Finding 11: overhead acceptable, grows with labels).
func runFig11(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out

	labelCounts := []int{20, 200, 2000}
	sizes := []int{3, 4, 8, 32, 128, 512, 2000}
	if cfg.Quick {
		labelCounts = []int{20, 200}
		sizes = []int{3, 8, 32}
	}
	header(w, "Fig. 11: CCSR read overhead (Patent analogue)",
		"Labels", "PatternSize", "ReadTime", "Clusters", "ViewMB")
	for _, labels := range labelCounts {
		spec := quickSpec(mustSpec("Patent").WithLabels(labels), cfg)
		g, engine := loadEngine(spec)
		rng := rand.New(rand.NewSource(1100 + int64(labels)))
		for _, size := range sizes {
			if size >= g.NumVertices() {
				continue
			}
			p, err := sampleAnyPattern(g, size, rng)
			if err != nil {
				fmt.Fprintf(w, "# labels %d size %d: %v (skipped)\n", labels, size, err)
				continue
			}
			// Measure only the read stage: run the pipeline with a match
			// limit of one embedding so execution cost stays negligible.
			res, err := engine.Match(p, core.MatchOptions{
				Variant:   graph.EdgeInduced,
				Mode:      plan.ModeCSCE,
				Limit:     1,
				TimeLimit: cfg.TimeLimit,
			})
			if err != nil {
				return err
			}
			cell(w, labels, size, res.ReadTime, res.ClustersRead,
				fmt.Sprintf("%.2f", float64(res.ViewBytes)/1e6))
		}
	}
	return nil
}
