package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MutexDiscipline enforces lock balance: a mutex locked in a function must
// be released on every path out of that function — either by a deferred
// Unlock or by explicit Unlocks covering each return — and must not be
// locked again while held. The analysis is a lightweight abstract
// interpretation over the statement tree (if/else, switch, select, loops)
// tracking which lock expressions are held; it is deliberately
// conservative and merges diverging branches by intersection, so a
// function that intentionally returns holding a lock needs a
// //lint:ignore with its justification. A mutex passed by value is go
// vet's copylocks finding, so it is not repeated here.
//
// Lock()/Unlock() and RLock()/RUnlock() pairs are tracked independently
// per lock expression (spelled as written: "c.mu", "s.names", ...). The
// same held-set walk, keyed by module-wide lock identity instead, builds
// lockorder's graph.
var MutexDiscipline = &Check{
	Name: "mutexdiscipline",
	Doc:  "every Lock needs an Unlock on all paths, and no Lock while already held",
	Run:  runMutexDiscipline,
}

// isMutexType reports whether t (after stripping pointers) is sync.Mutex
// or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return namedTypeIn(t, "sync", "Mutex") || namedTypeIn(t, "sync", "RWMutex")
}

// lockOp classifies a statement-level call on a mutex.
type lockOp struct {
	key     string // lock expression + "/r" for the reader half of an RWMutex
	display string // as written, for diagnostics
	lock    bool   // true = Lock/RLock, false = Unlock/RUnlock
	pos     ast.Node
	// deferred marks a held lock whose Unlock a defer statement already
	// reached on this path: it is released at function exit.
	deferred bool
}

// mutexCallOp decodes expr as mu.Lock() / mu.Unlock() / mu.RLock() /
// mu.RUnlock() on a sync mutex; ok is false otherwise.
func mutexCallOp(p *Package, expr ast.Expr) (lockOp, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return lockOp{}, false
	}
	sel := calleeSelector(call)
	if sel == nil {
		return lockOp{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op.lock = true
	case "RLock":
		op.lock = true
		op.key = "/r"
	case "Unlock":
	case "RUnlock":
		op.key = "/r"
	default:
		return lockOp{}, false
	}
	recvType := p.Info.Types[sel.X].Type
	if recvType == nil || !isMutexType(recvType) {
		return lockOp{}, false
	}
	name, ok := exprKey(sel.X)
	if !ok {
		return lockOp{}, false
	}
	op.display = name
	op.key = name + op.key
	op.pos = call
	return op, true
}

// exprKey renders a lock expression as a stable string key. Only chains of
// identifiers and field selections are tracked; anything else (indexing, a
// call result) has no stable identity across statements.
func exprKey(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return exprKey(e.X)
		}
	}
	return "", false
}

func runMutexDiscipline(p *Pass) {
	funcDecls(p.Package, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
		analyzeLockBalance(p, body)
	})
}

// lockState maps held lock keys to the operation that acquired them.
type lockState map[string]lockOp

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// intersect keeps only locks held in both states (the conservative merge:
// a lock released on either branch is treated as released).
func (s lockState) intersect(o lockState) lockState {
	c := lockState{}
	for k, v := range s {
		if _, ok := o[k]; ok {
			c[k] = v
		}
	}
	return c
}

// balanceScope carries the pass through one function's walk.
type balanceScope struct {
	p *Pass
}

// analyzeLockBalance walks one function body. Nested function literals are
// not descended into here — funcDecls hands them to this analysis
// separately — except to read deferred closures for Unlock calls.
func analyzeLockBalance(p *Pass, body *ast.BlockStmt) {
	sc := &balanceScope{p: p}
	st, terminated := sc.walkStmts(body.List, lockState{})
	if !terminated {
		sc.reportHeld(st, "end of function")
	}
}

// reportHeld flags every lock still held at an exit point, unless a
// deferred Unlock covers it on this path. A defer placed after an early
// return does not cover that return.
func (sc *balanceScope) reportHeld(st lockState, where string) {
	for _, op := range st {
		if op.deferred {
			continue
		}
		sc.p.Reportf(op.pos.Pos(), "%s is still locked at %s on some path (unlock it or defer the Unlock)", op.display, where)
	}
}

// walkStmts interprets a statement list, returning the resulting state and
// whether every path through the list terminates (return/branch).
func (sc *balanceScope) walkStmts(stmts []ast.Stmt, st lockState) (lockState, bool) {
	for _, stmt := range stmts {
		var terminated bool
		st, terminated = sc.walkStmt(stmt, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (sc *balanceScope) walkStmt(stmt ast.Stmt, st lockState) (lockState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if op, ok := mutexCallOp(sc.p.Package, s.X); ok {
			if op.lock {
				if held, already := st[op.key]; already {
					sc.p.Reportf(op.pos.Pos(), "%s is locked again while already held (locked at line %d); this self-deadlocks",
						op.display, sc.p.Fset.Position(held.pos.Pos()).Line)
				}
				st = st.clone()
				st[op.key] = op
			} else {
				st = st.clone()
				delete(st, op.key)
			}
		}
	case *ast.DeferStmt:
		// defer mu.Unlock(), or a deferred closure that unlocks, covers
		// the locks held here from this point on.
		unlocks := []ast.Expr{s.Call}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if es, ok := m.(*ast.ExprStmt); ok {
					unlocks = append(unlocks, es.X)
				}
				return true
			})
		}
		for _, e := range unlocks {
			if op, ok := mutexCallOp(sc.p.Package, e); ok && !op.lock {
				if held, ok := st[op.key]; ok && !held.deferred {
					st = st.clone()
					held.deferred = true
					st[op.key] = held
				}
			}
		}
	case *ast.ReturnStmt:
		sc.reportHeld(st, fmt.Sprintf("the return on line %d", sc.p.Fset.Position(s.Pos()).Line))
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing construct; treating them
		// as terminating keeps the analysis simple and conservative.
		return st, true
	case *ast.BlockStmt:
		return sc.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return sc.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		thenSt, thenTerm := sc.walkStmts(s.Body.List, st.clone())
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = sc.walkStmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return thenSt.intersect(elseSt), false
		}
	case *ast.ForStmt:
		bodySt, _ := sc.walkStmts(s.Body.List, st.clone())
		return st.intersect(bodySt), false
	case *ast.RangeStmt:
		bodySt, _ := sc.walkStmts(s.Body.List, st.clone())
		return st.intersect(bodySt), false
	case *ast.SwitchStmt:
		return sc.walkCases(caseBodies(s.Body), hasDefaultClause(s.Body), st)
	case *ast.TypeSwitchStmt:
		return sc.walkCases(caseBodies(s.Body), hasDefaultClause(s.Body), st)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		// A select blocks until some case runs, so the entry state does
		// not flow around it: merge the cases only.
		return sc.walkCases(bodies, true, st)
	}
	return st, false
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var bodies [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			bodies = append(bodies, cc.Body)
		}
	}
	return bodies
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// walkCases merges the branches of a switch/select. Without a default (or
// an exhaustive guarantee) the entry state joins the merge, modeling the
// fall-past path.
func (sc *balanceScope) walkCases(bodies [][]ast.Stmt, exhaustive bool, st lockState) (lockState, bool) {
	merged := lockState(nil)
	allTerm := len(bodies) > 0
	for _, b := range bodies {
		caseSt, term := sc.walkStmts(b, st.clone())
		if term {
			continue
		}
		allTerm = false
		if merged == nil {
			merged = caseSt
		} else {
			merged = merged.intersect(caseSt)
		}
	}
	if !exhaustive {
		if merged == nil {
			merged = st
		} else {
			merged = merged.intersect(st)
		}
		allTerm = false
	}
	if allTerm {
		return st, true
	}
	if merged == nil {
		merged = st
	}
	return merged, false
}
