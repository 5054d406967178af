// Package csce is a from-scratch Go implementation of CSCE — "Large
// Subgraph Matching: A Comprehensive and Efficient Approach for
// Heterogeneous Graphs" (ICDE 2024): subgraph matching for large patterns
// (8–2000 vertices) on heterogeneous graphs, supporting the edge-induced,
// vertex-induced, and homomorphic variants.
//
// The engine combines two ideas from the paper:
//
//   - CCSR (Clustered Compressed Sparse Row): the data graph is clustered
//     offline into edge-isomorphism classes so candidate lookup is a direct
//     index access instead of repeated label matching;
//   - SCE (Sequential Candidate Equivalence): a dependency DAG over the
//     matching order reveals which candidate sets are independent of
//     earlier mappings and can be reused instead of recomputed.
//
// Basic use:
//
//	g, _ := csce.ParseGraph(dataReader)
//	engine := csce.NewEngine(g)                 // offline clustering, reusable
//	p, _ := csce.ParsePattern(patternReader, g) // shares g's label table
//	res, _ := engine.Match(p, csce.MatchOptions{Variant: csce.EdgeInduced})
//	fmt.Println(res.Embeddings)
//
// This package is a thin facade; the implementation lives in the internal
// packages (graph model, ccsr index, plan optimizer, join executor,
// baselines, datasets, and the experiment harness that regenerates every
// table and figure of the paper — see DESIGN.md and EXPERIMENTS.md).
package csce

import (
	"io"

	"csce/internal/core"
	"csce/internal/delta"
	"csce/internal/graph"
	"csce/internal/plan"
	"csce/internal/query"
)

// Re-exported graph model types.
type (
	// Graph is an immutable heterogeneous graph (data graph or pattern).
	Graph = graph.Graph
	// Builder constructs graphs programmatically.
	Builder = graph.Builder
	// LabelTable interns symbolic label names; a pattern must share its
	// data graph's table.
	LabelTable = graph.LabelTable
	// VertexID identifies a vertex (dense, starting at 0).
	VertexID = graph.VertexID
	// Label is an interned vertex label.
	Label = graph.Label
	// EdgeLabel is an interned edge label (0 = unlabeled).
	EdgeLabel = graph.EdgeLabel
	// Variant selects the subgraph-matching semantics.
	Variant = graph.Variant
	// Stats summarizes a graph like the paper's Table IV.
	Stats = graph.Stats
)

// The three subgraph-matching variants (Section II of the paper).
const (
	EdgeInduced   = graph.EdgeInduced
	VertexInduced = graph.VertexInduced
	Homomorphic   = graph.Homomorphic
)

// Engine types.
type (
	// Engine owns a clustered data graph and answers matching tasks.
	Engine = core.Engine
	// MatchOptions configures one matching task.
	MatchOptions = core.MatchOptions
	// MatchResult reports embeddings plus per-stage timings.
	MatchResult = core.MatchResult
	// Plan is an optimized matching order with its dependency DAG and SCE
	// statistics.
	Plan = plan.Plan
	// PlanMode selects the optimization pipeline (full CSCE or ablations).
	PlanMode = plan.Mode
)

// Plan modes for MatchOptions.Mode (Fig. 13 ablations).
const (
	PlanCSCE      = plan.ModeCSCE
	PlanRI        = plan.ModeRI
	PlanRICluster = plan.ModeRICluster
	PlanRM        = plan.ModeRM
	// PlanCostBased is the extension heuristic: cluster-statistics cost
	// model plus LDSF (see plan.ModeCostBased).
	PlanCostBased = plan.ModeCostBased
)

// NewEngine clusters the data graph into CCSR form (the offline stage).
func NewEngine(g *Graph) *Engine { return core.NewEngine(g) }

// LoadEngine reads an engine previously serialized with Engine.Save.
func LoadEngine(r io.Reader) (*Engine, error) { return core.Load(r) }

// NewBuilder returns a graph builder (directed or undirected).
func NewBuilder(directed bool) *Builder { return graph.NewBuilder(directed) }

// NewLabelTable returns an empty label-interning table.
func NewLabelTable() *LabelTable { return graph.NewLabelTable() }

// ParseGraph reads a data graph in the text edge-list format:
//
//	t directed|undirected
//	v <id> <label>
//	e <src> <dst> [edgeLabel]
func ParseGraph(r io.Reader) (*Graph, error) { return graph.Parse(r) }

// ParsePattern reads a pattern graph, interning its labels through the
// data graph's table so equal names mean equal labels.
func ParsePattern(r io.Reader, data *Graph) (*Graph, error) {
	names := data.Names
	if names == nil {
		names = graph.NewLabelTable()
	}
	return graph.ParseWith(r, names)
}

// FormatGraph writes g in the text format read by ParseGraph.
func FormatGraph(w io.Writer, g *Graph) error { return graph.Format(w, g) }

// ComputeStats gathers Table IV-style statistics for g.
func ComputeStats(name string, g *Graph) Stats { return graph.ComputeStats(name, g) }

// Clique returns an undirected k-clique pattern with every vertex labeled
// l — useful for higher-order analysis such as the paper's case study.
func Clique(k int, l Label) *Graph { return graph.Clique(k, l) }

// Higher-order graph analysis (the paper's motivating application).
type (
	// HigherOrderOptions configures Engine.BuildHigherOrder.
	HigherOrderOptions = core.HigherOrderOptions
	// PairWeights maps unordered data-vertex pairs to instance counts.
	PairWeights = core.PairWeights
)

// Continuous (delta) matching after incremental updates.
type (
	// DeltaEdge identifies a data edge for delta matching.
	DeltaEdge = delta.Edge
	// DeltaOptions bounds a delta enumeration.
	DeltaOptions = delta.Options
)

// NewEmbeddings enumerates the embeddings created by the most recent
// InsertEdge (which must already be applied to the engine). See
// internal/delta for semantics; vertex-induced matching is not supported
// because it is not monotone under edge updates.
func NewEmbeddings(e *Engine, p *Graph, inserted DeltaEdge, opts DeltaOptions) (uint64, error) {
	return delta.NewEmbeddings(e.Store(), p, inserted, opts)
}

// RemovedEmbeddings enumerates the embeddings an upcoming DeleteEdge will
// destroy; call before applying the deletion.
func RemovedEmbeddings(e *Engine, p *Graph, toDelete DeltaEdge, opts DeltaOptions) (uint64, error) {
	return delta.RemovedEmbeddings(e.Store(), p, toDelete, opts)
}

// ParseQuery compiles a Cypher-inspired MATCH query into a pattern graph
// against the data graph's labels and directedness:
//
//	MATCH (a:Person)-[:knows]->(b:Person), (b)-[:knows]->(a)
//
// The returned variable names parallel the pattern's vertex IDs.
func ParseQuery(q string, data *Graph) (*Graph, []string, error) {
	names := data.Names
	if names == nil {
		names = graph.NewLabelTable()
	}
	parsed, err := query.Parse(q, names, data.Directed())
	if err != nil {
		return nil, nil, err
	}
	return parsed.Pattern, parsed.Vars, nil
}
