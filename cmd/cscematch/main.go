// Command cscematch finds all embeddings of a pattern in a data graph
// with the CSCE engine.
//
//	cscematch -data yeast.graph -pattern yeast-d8-0.graph -variant edge
//	cscematch -data social.graph -query "MATCH (a:Person)-[:knows]->(b:Person)"
//
// Flags select the matching variant (edge, vertex, homo), a plan-mode
// ablation, limits, and whether to print individual embeddings or the
// optimized plan. The clustered index can be cached on disk across runs:
//
//	cscematch -data big.graph -save-index big.ccsr
//	cscematch -index big.ccsr -pattern p.graph
//
// The index stores the original graph's label table, so patterns (and
// -query) parsed against a loaded index intern label names exactly as the
// direct -data path does.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"csce"
	"csce/internal/graph"
	"csce/internal/query"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "cscematch: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cscematch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath    = fs.String("data", "", "data graph file")
		indexPath   = fs.String("index", "", "pre-built CCSR index file (alternative to -data)")
		saveIndex   = fs.String("save-index", "", "write the clustered index here and exit")
		patternPath = fs.String("pattern", "", "pattern graph file")
		queryText   = fs.String("query", "", "MATCH query instead of a pattern file")
		variantName = fs.String("variant", "edge", "matching variant: edge, vertex, homo")
		modeName    = fs.String("mode", "csce", "plan mode: csce, ri, ri+cluster, rm, cost")
		limit       = fs.Uint64("limit", 0, "stop after this many embeddings (0 = all)")
		timeout     = fs.Duration("timeout", 0, "overall deadline via cooperative cancellation; Ctrl-C also cancels (0 = none)")
		printAll    = fs.Bool("print", false, "print each embedding")
		symBreak    = fs.Bool("symbreak", false, "apply symmetry breaking (count instances, not mappings)")
		showPlan    = fs.Bool("plan", false, "print the optimized plan")
		showProfile = fs.Bool("profile", false, "print the per-level execution profile")
		showDot     = fs.Bool("dot", false, "print the dependency DAG in Graphviz format")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var engine *csce.Engine
	var data *csce.Graph
	switch {
	case *dataPath != "":
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		data, err = csce.ParseGraph(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("parse data graph: %w", err)
		}
		engine = csce.NewEngine(data)
	case *indexPath != "":
		f, err := os.Open(*indexPath)
		if err != nil {
			return err
		}
		var err2 error
		engine, err2 = csce.LoadEngine(f)
		_ = f.Close()
		if err2 != nil {
			return fmt.Errorf("load index: %w", err2)
		}
	default:
		return fmt.Errorf("pass -data or -index")
	}

	if *saveIndex != "" {
		f, err := os.Create(*saveIndex)
		if err != nil {
			return err
		}
		if err := engine.Save(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("save index: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("save index: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d clusters)\n", *saveIndex, engine.Store().NumClusters())
		return nil
	}

	// Parse the pattern with the data graph's label table so equal names
	// mean equal labels. A loaded index carries the table too; only legacy
	// (version-1) index files lack it, in which case a fresh table is the
	// best available.
	names := engine.Names()
	if names == nil {
		names = graph.NewLabelTable()
	}
	var p *csce.Graph
	var varNames []string
	switch {
	case *queryText != "":
		if data == nil && engine.Names() == nil {
			return fmt.Errorf("-query needs -data or an index with a label table (re-save with a current build)")
		}
		q, err := query.Parse(*queryText, names, engine.Store().Directed())
		if err != nil {
			return err
		}
		p = q.Pattern
		varNames = q.Vars
	case *patternPath != "":
		pf, err := os.Open(*patternPath)
		if err != nil {
			return err
		}
		p, err = graph.ParseWith(pf, names)
		_ = pf.Close()
		if err != nil {
			return fmt.Errorf("parse pattern: %w", err)
		}
	default:
		return fmt.Errorf("pass -pattern or -query")
	}

	variant, err := parseVariant(*variantName)
	if err != nil {
		return err
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		return err
	}
	opts := csce.MatchOptions{
		Variant:          variant,
		Mode:             mode,
		Limit:            *limit,
		SymmetryBreaking: *symBreak,
		Profile:          *showProfile,
	}
	// Cooperative cancellation: the same code path the csced daemon uses
	// for per-query timeouts and client disconnects. Ctrl-C stops the
	// search gracefully and still prints the partial counts.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts.Context = ctx
	if *printAll {
		opts.OnEmbedding = func(m []graph.VertexID) bool {
			for u, v := range m {
				if u > 0 {
					fmt.Fprint(stdout, " ")
				}
				if varNames != nil {
					fmt.Fprintf(stdout, "%s->v%d", varNames[u], v)
				} else {
					fmt.Fprintf(stdout, "u%d->v%d", u, v)
				}
			}
			fmt.Fprintln(stdout)
			return true
		}
	}
	start := time.Now()
	res, err := engine.Match(p, opts)
	if err != nil {
		return fmt.Errorf("match: %w", err)
	}
	if *showPlan {
		fmt.Fprintln(stdout, res.Plan)
	}
	if *showDot {
		fmt.Fprint(stdout, res.Plan.DOT())
	}
	if *showProfile && res.Profile != nil {
		fmt.Fprint(stdout, res.Profile)
	}
	fmt.Fprintf(stdout, "embeddings: %d\n", res.Embeddings)
	if res.Automorphisms > 0 {
		fmt.Fprintf(stdout, "automorphisms: %d (counts are instances)\n", res.Automorphisms)
	}
	fmt.Fprintf(stdout, "time: total=%v read=%v plan=%v exec=%v (wall %v)\n",
		res.Total(), res.ReadTime, res.PlanTime, res.ExecTime, time.Since(start))
	fmt.Fprintf(stdout, "clusters read: %d (%.2f MB referenced)\n",
		res.ClustersRead, float64(res.ViewBytes)/1e6)
	fmt.Fprintf(stdout, "exec: steps=%d candidate builds=%d reuses=%d nec-shares=%d factorized=%d\n",
		res.Exec.Steps, res.Exec.CandidateBuilds, res.Exec.CandidateReuses,
		res.Exec.NECShares, res.Exec.FactorizedLevels)
	if res.Exec.Cancelled {
		fmt.Fprintln(stdout, "search cancelled (timeout or interrupt); counts are partial")
	}
	return nil
}

func parseVariant(s string) (csce.Variant, error) {
	switch s {
	case "edge", "edge-induced", "e":
		return csce.EdgeInduced, nil
	case "vertex", "vertex-induced", "v", "induced":
		return csce.VertexInduced, nil
	case "homo", "homomorphic", "h":
		return csce.Homomorphic, nil
	}
	return 0, fmt.Errorf("unknown variant %q (edge, vertex, homo)", s)
}

func parseMode(s string) (csce.PlanMode, error) {
	switch s {
	case "csce":
		return csce.PlanCSCE, nil
	case "ri":
		return csce.PlanRI, nil
	case "ri+cluster":
		return csce.PlanRICluster, nil
	case "rm":
		return csce.PlanRM, nil
	case "cost", "costbased":
		return csce.PlanCostBased, nil
	}
	return 0, fmt.Errorf("unknown plan mode %q (csce, ri, ri+cluster, rm, cost)", s)
}
