package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// AllocFree is the zero-allocation gate for the executor's hot paths: a
// function annotated
//
//	//csce:hotpath
//
// in its doc comment must not contain heap-allocation sites. The evidence
// comes from the compiler itself — AttachAllocs parses the escape-analysis
// diagnostics of `go build -gcflags='-m -m'` — so the gate tracks what the
// generated code actually does, not what the source looks like. Known,
// justified allocations are pinned in ALLOC_BUDGET.json at the module
// root; a site not covered by the budget fails the check, and a budget
// entry matching nothing is reported as stale so the file cannot rot.
//
// Two honest limitations, both inherited from escape analysis: append
// growth and map inserts allocate at run time without a compile-time site,
// and an annotated function that gets fully inlined reports its sites at
// the caller. The gate is a ratchet on syntactic allocation sites — the
// dominant regression mode (a fresh make/new/composite literal or
// interface boxing on the hot path) — not a proof of zero allocations;
// BenchmarkExtend's allocs/op number is the runtime ground truth.
var AllocFree = &Check{
	Name:   "allocfree",
	Doc:    "//csce:hotpath functions must not allocate beyond ALLOC_BUDGET.json",
	Run:    runAllocFree,
	Finish: finishAllocFree,
}

const hotPathDirective = "//csce:hotpath"

// budgetFileName is resolved against the module root of the analyzed
// packages.
const budgetFileName = "ALLOC_BUDGET.json"

// budgetEntry pins one known allocation: Func is the annotated function's
// qualified name ("csce/internal/shard.mergeRow"), Alloc the compiler's
// rendering of the site (AllocSite.Expr, verbatim), Count how many sites
// with that exact rendering the function may contain (default 1), and Why
// the human justification (mandatory — an unexplained pin defeats the
// gate).
type budgetEntry struct {
	Func  string `json:"func"`
	Alloc string `json:"alloc"`
	Count int    `json:"count,omitempty"`
	Why   string `json:"why"`
}

type budgetFile struct {
	SchemaVersion int           `json:"schema_version"`
	Allocations   []budgetEntry `json:"allocations"`
}

// allocSession tracks, across packages, which budget entries matched so
// Finish can flag stale ones exactly once.
type allocSession struct {
	budgets  map[string]*moduleBudget // module dir -> budget
	analyzed map[string]bool          // package paths this run actually saw
}

type moduleBudget struct {
	path    string
	entries []budgetEntry
	used    []int // sites matched per entry
	loadErr error
	// annotated reports whether any //csce:hotpath declaration was seen in
	// this module; stale-entry reporting only makes sense if so.
	annotated bool
}

func allocState(p *Pass) *allocSession {
	return p.Session.State("allocfree", func() any {
		return &allocSession{budgets: map[string]*moduleBudget{}, analyzed: map[string]bool{}}
	}).(*allocSession)
}

// hotPathDecls returns the //csce:hotpath-annotated function declarations
// of a package, keyed by their qualified diagnostic name.
func hotPathDecls(p *Package) map[*ast.FuncDecl]string {
	out := map[*ast.FuncDecl]string{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				text := strings.TrimSpace(c.Text)
				if text == hotPathDirective || strings.HasPrefix(text, hotPathDirective+" ") {
					out[fd] = qualifiedFuncName(p, fd)
					break
				}
			}
		}
	}
	return out
}

// qualifiedFuncName renders pkgpath.(*Recv).Name / pkgpath.Name — the
// identity budget entries use.
func qualifiedFuncName(p *Package, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv := types.ExprString(fd.Recv.List[0].Type)
		name = "(" + recv + ")." + name
	}
	return p.Path + "." + name
}

func (s *allocSession) budgetFor(p *Package) *moduleBudget {
	mb, ok := s.budgets[p.ModuleDir]
	if ok {
		return mb
	}
	mb = &moduleBudget{path: filepath.Join(p.ModuleDir, budgetFileName)}
	data, err := os.ReadFile(mb.path)
	switch {
	case os.IsNotExist(err):
		// No budget file: every hot-path allocation is a finding.
	case err != nil:
		mb.loadErr = err
	default:
		var bf budgetFile
		if err := json.Unmarshal(data, &bf); err != nil {
			mb.loadErr = fmt.Errorf("parse %s: %v", mb.path, err)
		} else {
			mb.entries = bf.Allocations
		}
	}
	mb.used = make([]int, len(mb.entries))
	s.budgets[p.ModuleDir] = mb
	return mb
}

func runAllocFree(p *Pass) {
	s := allocState(p)
	s.analyzed[p.Package.Path] = true
	decls := hotPathDecls(p.Package)
	if len(decls) == 0 {
		return
	}
	mb := s.budgetFor(p.Package)
	mb.annotated = true
	if mb.loadErr != nil {
		p.ReportAt(token.Position{Filename: mb.path, Line: 1}, "cannot load allocation budget: %v", mb.loadErr)
		return
	}
	if !p.AllocsLoaded {
		for fd, name := range decls {
			p.Reportf(fd.Pos(), "%s is annotated %s but escape analysis was not loaded; run through cscelint (or AttachAllocs) so the gate has compiler evidence", name, hotPathDirective)
		}
		return
	}
	for fd, name := range decls {
		start := p.Fset.Position(fd.Pos())
		end := p.Fset.Position(fd.End())
		for _, site := range p.Allocs {
			if site.Pos.Filename != start.Filename || site.Pos.Line < start.Line || site.Pos.Line > end.Line {
				continue
			}
			if mb.admit(name, site.Expr) {
				continue
			}
			p.ReportAt(site.Pos, "hot path %s allocates: %s (fix it, or pin it in %s with a justification)", name, site.Expr, budgetFileName)
		}
	}
}

// entryPkgPath extracts the import path from a budget entry's qualified
// function name: "csce/internal/shard.(*T).m" -> "csce/internal/shard".
// The package path ends at the first dot after the last slash (import
// path elements may themselves contain dots, e.g. domain names).
func entryPkgPath(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// admit consumes one budget slot for the (func, alloc) pair if one remains.
func (mb *moduleBudget) admit(fn, alloc string) bool {
	for i, e := range mb.entries {
		if e.Func != fn || e.Alloc != alloc {
			continue
		}
		count := e.Count
		if count == 0 {
			count = 1
		}
		if mb.used[i] < count {
			mb.used[i]++
			return true
		}
	}
	return false
}

// finishAllocFree reports budget entries that matched no allocation site:
// either the allocation was fixed (delete the pin) or the entry drifted
// out of sync with the compiler's rendering (update it). Stale pins are
// latent holes in the gate, so they fail like any other finding. Only
// entries belonging to packages in the analyzed set are judged — a run
// scoped to ./internal/obs cannot tell whether a pin for internal/shard
// is stale, so it stays silent about it; the module-wide `make lint` run
// (and TestRepositoryIsClean) keeps the whole budget honest.
func finishAllocFree(p *Pass) {
	s := allocState(p)
	dirs := make([]string, 0, len(s.budgets))
	for dir := range s.budgets {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		mb := s.budgets[dir]
		if !mb.annotated || mb.loadErr != nil {
			continue
		}
		for i, e := range mb.entries {
			if mb.used[i] == 0 && s.analyzed[entryPkgPath(e.Func)] {
				p.ReportAt(token.Position{Filename: mb.path, Line: 1},
					"stale budget entry: %s no longer allocates %q (remove the pin, or re-sync it with the compiler's rendering)", e.Func, e.Alloc)
			}
		}
	}
}
