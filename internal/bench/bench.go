// Package bench is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation (Section VII), each printing
// the same rows or series the paper reports. The cmd/cscebench binary and
// the root-level Go benchmarks drive this package; EXPERIMENTS.md records
// paper-versus-measured outcomes.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"csce/internal/baseline"
	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/graph"
)

// Config bounds an experiment run. The defaults keep the full suite at
// laptop scale; Quick shrinks it further for smoke tests.
type Config struct {
	Out io.Writer
	// TimeLimit bounds each individual matching task; timed-out tasks are
	// reported at the limit, following the paper's convention.
	TimeLimit time.Duration
	// PatternsPerConfig is how many sampled patterns are averaged per
	// configuration (the paper uses 10).
	PatternsPerConfig int
	// Quick trims datasets and pattern sizes for smoke testing.
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = time.Second
	}
	if c.PatternsPerConfig == 0 {
		c.PatternsPerConfig = 2
	}
	return c
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string // e.g. "fig6"
	Title string // the paper artifact it reproduces
	Run   func(cfg Config) error
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"table3", "Table III: algorithm capability matrix", runTable3},
		{"table4", "Table IV: dataset statistics", runTable4},
		{"fig6", "Fig. 6: total time per dataset/pattern/variant/algorithm", runFig6},
		{"fig7", "Fig. 7: edge- vs vertex-induced on RoadCA", runFig7},
		{"fig8", "Fig. 8: edge-induced throughput on RoadCA", runFig8},
		{"fig9", "Fig. 9: scalability by number of embeddings (DIP)", runFig9},
		{"fig10", "Fig. 10: plan-generation scalability to 2000-vertex patterns", runFig10},
		{"fig11", "Fig. 11: CCSR read overhead by labels and pattern size", runFig11},
		{"fig12", "Fig. 12: SCE occurrence on Patent patterns", runFig12},
		{"fig13", "Fig. 13: query plan quality (RM/RI/RI+Cluster/CSCE)", runFig13},
		{"fig14", "Fig. 14: symmetry breaking and pattern density on DIP", runFig14},
		{"casestudy", "Sec. VII-G: higher-order clustering of EMAIL-EU", runCaseStudy},
		{"ablation", "Extra: SCE cache / factorization / NEC ablations", runAblation},
		{"extensions", "Extra: incremental updates, delta matching", runExtensions},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared dataset / engine caches ----
//
// Experiments share generated datasets and their clustered engines so the
// suite does not regenerate multi-hundred-thousand-edge graphs per figure.

var (
	cacheMu     sync.Mutex
	graphCache  = map[string]*graph.Graph{}
	engineCache = map[string]*core.Engine{}
)

func loadGraph(spec dataset.Spec) *graph.Graph {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := graphCache[spec.Name]; ok {
		return g
	}
	g := spec.Generate()
	graphCache[spec.Name] = g
	return g
}

func loadEngine(spec dataset.Spec) (*graph.Graph, *core.Engine) {
	g := loadGraph(spec)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if e, ok := engineCache[spec.Name]; ok {
		return g, e
	}
	e := core.NewEngine(g)
	engineCache[spec.Name] = e
	return g, e
}

// catalogFor returns the dataset specs an experiment should touch: the
// full Table IV catalog normally, a small subset in Quick mode.
func catalogFor(cfg Config) []dataset.Spec {
	if !cfg.Quick {
		return dataset.Catalog()
	}
	var out []dataset.Spec
	for _, s := range dataset.Catalog() {
		switch s.Name {
		case "DIP", "Yeast", "Human":
			out = append(out, s)
		}
	}
	return out
}

func mustSpec(name string) dataset.Spec {
	s, ok := dataset.ByName(name)
	if !ok {
		panic("bench: unknown dataset " + name)
	}
	return s
}

// quickSpec shrinks a dataset for Quick runs.
func quickSpec(s dataset.Spec, cfg Config) dataset.Spec {
	if !cfg.Quick {
		return s
	}
	s.Name = s.Name + "-q"
	if s.Vertices > 3000 {
		scale := float64(3000) / float64(s.Vertices)
		s.Vertices = 3000
		s.TargetEdges = int(float64(s.TargetEdges) * scale)
		if s.TargetEdges < 6000 {
			s.TargetEdges = 6000
		}
	}
	return s
}

// ---- row helpers ----

func header(w io.Writer, title string, cols ...string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%-14s", c)
	}
	fmt.Fprintln(w)
}

func cell(w io.Writer, vals ...any) {
	for i, v := range vals {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		switch x := v.(type) {
		case time.Duration:
			fmt.Fprintf(w, "%-14s", fmtDuration(x))
		case float64:
			fmt.Fprintf(w, "%-14.3g", x)
		default:
			fmt.Fprintf(w, "%-14v", x)
		}
	}
	fmt.Fprintln(w)
}

func fmtDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fus", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// heapDelta runs fn and returns the heap growth it caused, the coarse peak
// memory proxy used by Figs. 10/11.
func heapDelta(fn func()) int64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	d := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if d < 0 {
		d = 0
	}
	return d
}

// samplePatterns draws patterns with a per-figure seed so experiments are
// independent yet reproducible.
func samplePatterns(g *graph.Graph, size int, dense bool, count int, seed int64) ([]*graph.Graph, error) {
	cfg := dataset.PatternConfig{Size: size, Dense: dense, Count: count, Seed: seed}
	return dataset.SamplePatterns(g, cfg)
}

// sampleAnyPattern samples without enforcing the dense/sparse split (used
// by sweeps whose exact density does not matter).
func sampleAnyPattern(g *graph.Graph, size int, rng *rand.Rand) (*graph.Graph, error) {
	p, err := dataset.SamplePattern(g, size, false, rng)
	if err == nil {
		return p, nil
	}
	return dataset.SamplePattern(g, size, true, rng)
}

// cscePoint runs the CSCE engine once under the experiment's limits.
func cscePoint(e *core.Engine, p *graph.Graph, variant graph.Variant, cfg Config) (core.MatchResult, error) {
	return e.Match(p, core.MatchOptions{Variant: variant, TimeLimit: cfg.TimeLimit})
}

// baselinePoint runs one baseline, mapping unsupported combinations to a
// skip (the paper leaves those cells blank).
func baselinePoint(m baseline.Matcher, g, p *graph.Graph, variant graph.Variant, cfg Config) (baseline.Result, bool) {
	res, err := m.Match(g, p, variant, baseline.Options{TimeLimit: cfg.TimeLimit})
	if err != nil {
		return baseline.Result{}, false
	}
	return res, true
}

// geoMeanDuration summarizes per-pattern times the way the paper's bars do.
func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
