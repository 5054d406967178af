// Package lint is a project-specific static analyzer suite built on the
// standard library's go/parser, go/ast, and go/types — no x/tools
// dependency, honoring the repo's stdlib-only rule.
//
// Each Check encodes one invariant the compiler, go vet and the tests do
// not enforce: errors not dropped, hot paths within their allocation
// budget, snapshots released, locks released and taken in one global
// order, atomically-accessed fields never touched plainly. A check stays
// only while it names the bug it catches — a recorded true positive or a
// mutation drill no other gate catches, listed in DESIGN.md "Static
// analysis" and enforced by TestCheckRegistry. cmd/cscelint runs them
// all; its TestRepositoryIsClean puts them in tier-1.
//
// Diagnostics can be suppressed per line with
//
//	//lint:ignore check1[,check2] reason
//
// placed either at the end of the offending line or on the line directly
// above it. The reason is mandatory; a malformed or unknown-check directive
// is itself reported (check name "directive").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Check is one analyzer pass. Run is invoked once per loaded package and
// reports findings through the Pass.
type Check struct {
	// Name is the identifier used in diagnostics, -checks, and
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description for -list and DESIGN.md.
	Doc string
	// Run inspects one package.
	Run func(*Pass)
	// Finish, when non-nil, runs once after every package was inspected,
	// with the same Session each Run saw. This is how whole-module checks
	// (lockorder's cross-package lock graph, allocfree's budget staleness)
	// aggregate before reporting; the Pass it receives has a nil Package.
	Finish func(*Pass)
}

// Checks returns the full suite in a stable order.
func Checks() []*Check {
	return []*Check{
		AtomicConsistency,
		MutexDiscipline,
		ErrcheckLite,
		AllocFree,
		RefBalance,
		LockOrder,
	}
}

// CheckByName resolves a check name; ok is false for unknown names.
func CheckByName(name string) (*Check, bool) {
	for _, c := range Checks() {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// Diagnostic is one finding, positioned and attributed to a check.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Session carries state across the packages of one Run invocation, for
// checks whose invariant spans package boundaries. Each check sees its own
// private slot.
type Session struct {
	state map[string]any
}

// State returns the check's cross-package state, initializing it with init
// on first use.
func (s *Session) State(check string, init func() any) any {
	if s.state == nil {
		s.state = map[string]any{}
	}
	v, ok := s.state[check]
	if !ok {
		v = init()
		s.state[check] = v
	}
	return v
}

// Pass is the per-(check, package) context handed to Check.Run. For
// Check.Finish, Package is nil and only Session/ReportAt are usable.
type Pass struct {
	*Package
	Session *Session
	check   *Check
	sink    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Fset.Position(pos), format, args...)
}

// ReportAt records a diagnostic at an already-resolved position — the form
// Finish hooks use, since they outlive any single package's FileSet.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:     pos,
		Check:   p.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the given checks over the loaded packages, applies
// //lint:ignore suppression, and returns the surviving diagnostics sorted
// by file, line, column, and check name. Malformed directives surface as
// "directive" diagnostics.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	known := make(map[string]bool, len(checks))
	for _, c := range Checks() {
		known[c.Name] = true
	}
	var ignores []ignoreDirective
	session := &Session{}
	for _, pkg := range pkgs {
		dirs, bad := collectIgnores(pkg, known)
		ignores = append(ignores, dirs...)
		diags = append(diags, bad...)
		for _, c := range checks {
			c.Run(&Pass{Package: pkg, Session: session, check: c, sink: &diags})
		}
	}
	for _, c := range checks {
		if c.Finish != nil {
			c.Finish(&Pass{Session: session, check: c, sink: &diags})
		}
	}
	diags = filterIgnored(diags, ignores)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// --- shared AST/type helpers used by several checks ---

// pkgNameOf returns the imported package an identifier refers to, or nil.
func (p *Package) pkgNameOf(id *ast.Ident) *types.Package {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported()
		}
	}
	return nil
}

// callee splits a call of the form pkg.Fn(...) or recv.Method(...) into its
// selector; nil for plain or non-selector calls.
func calleeSelector(call *ast.CallExpr) *ast.SelectorExpr {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return sel
}

// namedTypeIn reports whether t (after stripping pointers) is the named
// type pkgPath.name.
func namedTypeIn(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// funcDecls yields every function body in the package: declarations and
// function literals, each paired with its type. Literals nested in a
// declaration are yielded separately so checks can treat them as functions
// in their own right.
func funcDecls(p *Package, fn func(name string, ft *ast.FuncType, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Name.Name, fd.Type, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					fn(fd.Name.Name+".func", fl.Type, fl.Body)
				}
				return true
			})
		}
	}
}
