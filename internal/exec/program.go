package exec

import (
	"errors"

	"csce/internal/ccsr"
	"csce/internal/graph"
	"csce/internal/plan"
)

// ErrForeignStore is returned by Program.Run for a store other than the one
// the program was compiled against: its rows would not be that store's.
var ErrForeignStore = errors.New("exec: program run against a store it was not compiled for")

// Program is a plan compiled against one store: each level's filter chain
// resolved to cluster rows and ordered, the depth-0 pool, the NEC aliases
// and the static factorization flags — everything engine construction
// derives from the plan and the clusters, and nothing a run writes. It is
// immutable, so one program serves any number of runs, concurrent ones
// included; each run instantiates its own search state from it.
//
// A program holds the rows it reads but neither the View nor the Store they
// came from, so keeping one alive retains only the clusters it names, and
// only the store's Version tells which store those are.
type Program struct {
	pl      *plan.Plan
	version uint64 // ccsr.Store.Version of the store compiled against

	// levels[d].end delimits level d's chain in stages: it is
	// stages[levels[d-1].end:levels[d].end]. levels is nil when a pattern
	// edge has no cluster, which makes every run empty.
	levels []progLevel
	stages []progStage
	pool   []graph.VertexID // depth-0 candidates

	clusters, viewBytes int // of the View compiled from
}

// progStage is a stage's static half: the row to filter by, the depth whose
// mapping indexes it, and whether it negates.
type progStage struct {
	csr    *ccsr.CSR
	depth  int32
	negate bool
}

// progLevel is a level's static half beyond its chain.
type progLevel struct {
	end          int32
	necAlias     int32
	factorizable bool
}

// Compile resolves pl against view once, for any number of later runs on
// view's store (see Program). The view must have been read for pl's pattern
// and variant, as for Run.
func Compile(view *ccsr.View, pl *plan.Plan) (*Program, error) {
	prog := &Program{
		pl:        pl,
		version:   view.Store().Version(),
		clusters:  view.NumClusters(),
		viewBytes: view.DecompressedBytes(),
	}
	e := &engine{view: view, pl: pl, n: len(pl.Order), levels: make([]level, len(pl.Order))}
	_, ok, err := e.resolve()
	if err != nil {
		return nil, err
	}
	if !ok {
		return prog, nil
	}
	total := 0
	for d := range e.levels {
		total += len(e.levels[d].stages)
	}
	prog.levels = make([]progLevel, e.n)
	prog.stages = make([]progStage, 0, total)
	for d := range e.levels {
		for _, st := range e.levels[d].stages {
			prog.stages = append(prog.stages, progStage{csr: st.csr, depth: int32(st.parentDepth), negate: st.negate})
		}
		prog.levels[d] = progLevel{
			end:          int32(len(prog.stages)),
			necAlias:     int32(e.levels[d].necAlias),
			factorizable: e.levels[d].factorizable,
		}
	}
	// buildPool sized the pool for every non-empty row of its cluster, before
	// the label filter; a program outlives the compile, so it keeps only the
	// slots that filter filled.
	prog.pool = e.levels[0].pool
	if len(prog.pool) < cap(prog.pool) {
		prog.pool = append(make([]graph.VertexID, 0, len(prog.pool)), prog.pool...)
	}
	return prog, nil
}

// Restrict returns a program that runs like p but whose depth-0 pool holds
// only the vertices keep accepts, in an exactly sized slice: its runs find
// exactly those embeddings of p whose first order vertex maps to an
// accepted vertex. p is unchanged, and the two share everything else.
func (p *Program) Restrict(keep func(graph.VertexID) bool) *Program {
	q := *p
	n := 0
	for _, v := range p.pool {
		if keep(v) {
			n++
		}
	}
	q.pool = make([]graph.VertexID, 0, n)
	for _, v := range p.pool {
		if keep(v) {
			q.pool = append(q.pool, v)
		}
	}
	return &q
}

// Plan returns the plan the program was compiled from.
func (p *Program) Plan() *plan.Plan { return p.pl }

// Clusters returns how many clusters the compiled view selected.
func (p *Program) Clusters() int { return p.clusters }

// ViewBytes returns the compiled view's DecompressedBytes: the size of the
// shared cluster arrays the program may read.
func (p *Program) ViewBytes() int { return p.viewBytes }

// Run executes the program on store under opts, exactly as Run would
// execute its plan on a view of store read for the same pattern and
// variant. store must be the one the program was compiled against, at the
// same version; any other returns ErrForeignStore.
func (p *Program) Run(store *ccsr.Store, opts Options) (Stats, error) {
	if store.Version() != p.version {
		return Stats{}, ErrForeignStore
	}
	if p.levels == nil {
		return Stats{}, nil // a pattern edge has no matching cluster: empty result
	}
	e := newRunState(p.pl, opts, store.NumVertices())
	slab := make([]stage, len(p.stages))
	for i, st := range p.stages {
		slab[i] = stage{parentDepth: int(st.depth), csr: st.csr, negate: st.negate}
	}
	lo := int32(0)
	for d := range e.levels {
		pv, lv := p.levels[d], &e.levels[d]
		lv.u = p.pl.Order[d]
		lv.label = p.pl.Pattern.Label(lv.u)
		lv.stages = slab[lo:pv.end:pv.end]
		lv.necAlias = int(pv.necAlias)
		lv.factorizable = pv.factorizable
		lo = pv.end
	}
	e.levels[0].pool = p.pool
	if !e.applyOptions(store, nil) {
		return Stats{}, nil
	}
	return e.execute(), nil
}
