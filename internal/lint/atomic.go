package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicConsistency enforces the core rule of mixed-mode shared counters:
// once a variable or struct field is passed by address to the sync/atomic
// functions (atomic.AddUint64(&s.n, 1), atomic.LoadInt64(&hits), ...) it
// must never be read or written plainly again, anywhere in the package:
// every other appearance of the same object must also be an atomic call
// argument. Composite-literal keys are exempt (pre-publication init). A
// plain load next to atomic.AddUint64 compiles, passes the race detector
// unless a test happens to interleave the two, and tears under load.
//
// Typed atomics (atomic.Uint64, ...) cannot be read without their methods;
// copying one is go vet's copylocks finding, so it is not repeated here.
var AtomicConsistency = &Check{
	Name: "atomicconsistency",
	Doc:  "fields accessed via sync/atomic must never be read or written plainly",
	Run:  runAtomicConsistency,
}

// isAtomicFuncCall reports whether call invokes one of sync/atomic's
// operation functions (Add*, Load*, Store*, Swap*, CompareAndSwap*).
func (p *Package) isAtomicFuncCall(call *ast.CallExpr) bool {
	sel := calleeSelector(call)
	if sel == nil {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	imported := p.pkgNameOf(id)
	if imported == nil || imported.Path() != "sync/atomic" {
		return false
	}
	name := sel.Sel.Name
	for _, prefix := range [...]string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func runAtomicConsistency(p *Pass) {
	// Objects (fields and variables) atomically accessed somewhere in the
	// package, and the identifier nodes that constitute those legitimate
	// atomic accesses.
	atomicObjs := map[types.Object]bool{}
	sanctioned := map[*ast.Ident]bool{}
	// Identifiers appearing as composite-literal keys: field names, not
	// accesses.
	litKeys := map[*ast.Ident]bool{}

	// resolve maps the identifier of an expression like x, s.f, or (&s).f
	// to its object (variable or field).
	resolve := func(e ast.Expr) (*ast.Ident, types.Object) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj, ok := p.Info.Uses[e]; ok {
				return e, obj
			}
		case *ast.SelectorExpr:
			if selInfo, ok := p.Info.Selections[e]; ok && selInfo.Kind() == types.FieldVal {
				return e.Sel, selInfo.Obj()
			}
			if obj, ok := p.Info.Uses[e.Sel]; ok {
				if _, isVar := obj.(*types.Var); isVar {
					return e.Sel, obj
				}
			}
		}
		return nil, nil
	}

	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							litKeys[id] = true
						}
					}
				}
			case *ast.CallExpr:
				if p.isAtomicFuncCall(n) {
					for _, arg := range n.Args {
						un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
						if !ok || un.Op.String() != "&" {
							continue
						}
						if id, obj := resolve(un.X); obj != nil {
							atomicObjs[obj] = true
							sanctioned[id] = true
						}
					}
				}
			}
			return true
		})
	}

	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || litKeys[id] {
				return true
			}
			if obj, isUse := p.Info.Uses[id]; isUse && atomicObjs[obj] && !sanctioned[id] {
				p.Reportf(id.Pos(), "%s is accessed with sync/atomic elsewhere; plain access tears under concurrency (use the atomic functions here too)", id.Name)
			}
			return true
		})
	}
}
