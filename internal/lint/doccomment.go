package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DocComment enforces godoc discipline on the durability surface. The
// durable log and the restart-transparent resume window turned
// internal/live into the package operators reason about during recovery,
// and internal/prefilter exports the admission-signature API the server
// composes; both are read far more often than they are edited, usually
// under incident pressure. An exported identifier without a doc comment
// there forces the reader back into the implementation to learn a
// contract (what an FsyncPolicy means for data loss, when a resume
// window counts as Restored) that should be one hover away.
//
// The rule, per in-scope package:
//
//   - the package itself must carry a package comment on at least one
//     file;
//   - every exported top-level func — and every exported method on an
//     exported receiver type — must have a doc comment;
//   - every exported top-level type, const, and var must be covered by a
//     doc comment on its declaration group or on its own spec;
//   - a doc comment on a single-name declaration must mention that name,
//     so a comment copy-pasted from a sibling cannot satisfy the check.
//
// Methods on unexported receivers are skipped (String, Less, and friends
// implement interfaces; their contract is the interface's). Struct fields
// and interface methods are godoc-visible but left to review: field-level
// enforcement would force comment noise onto self-describing fields.
var DocComment = &Check{
	Name: "doccomment",
	Doc:  "exported identifiers in the live/prefilter packages must carry godoc comments",
	Run:  runDocComment,
}

// docCommentPkgs scopes the check to the packages whose exported API the
// durability work made operator-facing.
var docCommentPkgs = []string{"internal/live", "internal/prefilter"}

func runDocComment(p *Pass) {
	if !pkgInScope(p.Package, docCommentPkgs) {
		return
	}
	hasPkgDoc := false
	for _, f := range p.Files {
		if f.Doc != nil {
			hasPkgDoc = true
			break
		}
	}
	if !hasPkgDoc && len(p.Files) > 0 {
		// Report once, at the package clause of the first file.
		p.Reportf(p.Files[0].Name.Pos(), "package %s has no package comment on any file", p.Files[0].Name.Name)
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(p, d)
			case *ast.GenDecl:
				checkGenDoc(p, d)
			}
		}
	}
}

// checkFuncDoc applies the rule to one function or method declaration.
func checkFuncDoc(p *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	kind := "function "
	if d.Recv != nil {
		recv := receiverTypeName(d.Recv)
		if recv == "" || !token.IsExported(recv) {
			// Exported methods on unexported types usually satisfy an
			// interface; their doc home is the interface.
			return
		}
		kind = "method " + recv + "."
	}
	if d.Doc == nil {
		p.Reportf(d.Name.Pos(), "exported %s%s has no doc comment", kind, d.Name.Name)
		return
	}
	if !docMentions(d.Doc, d.Name.Name) {
		p.Reportf(d.Name.Pos(), "doc comment on exported %s%s does not mention %q", kind, d.Name.Name, d.Name.Name)
	}
}

// checkGenDoc applies the rule to a type/const/var declaration: the group
// doc covers every spec; otherwise each spec with an exported name needs
// its own.
func checkGenDoc(p *Pass, d *ast.GenDecl) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		var names []*ast.Ident
		var doc *ast.CommentGroup
		switch s := spec.(type) {
		case *ast.TypeSpec:
			names, doc = []*ast.Ident{s.Name}, s.Doc
		case *ast.ValueSpec:
			names, doc = s.Names, s.Doc
		}
		var exported *ast.Ident
		for _, n := range names {
			if n.IsExported() {
				exported = n
				break
			}
		}
		if exported == nil {
			continue
		}
		covering := doc
		if covering == nil {
			covering = d.Doc
		}
		if covering == nil {
			p.Reportf(exported.Pos(), "exported %s %s has no doc comment on its declaration or group", d.Tok, exported.Name)
			continue
		}
		// For a lone exported name the comment must actually be about it.
		// Grouped const/var runs (enumerations under one group doc) are
		// exempt from the mention rule: the group comment names the family.
		if len(names) == 1 && doc != nil && !docMentions(doc, exported.Name) {
			p.Reportf(exported.Pos(), "doc comment on exported %s %s does not mention %q", d.Tok, exported.Name, exported.Name)
		}
	}
}

// receiverTypeName unwraps the receiver's base type identifier, looking
// through pointers and type-parameter instantiations.
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// docMentions reports whether the comment group contains name as a whole
// word, so `// Foos do X` does not satisfy Foo's sibling Food.
func docMentions(doc *ast.CommentGroup, name string) bool {
	text := doc.Text()
	for i := 0; ; {
		j := strings.Index(text[i:], name)
		if j < 0 {
			return false
		}
		j += i
		end := j + len(name)
		before := j == 0 || !identByte(text[j-1])
		after := end == len(text) || !identByte(text[end])
		if before && after {
			return true
		}
		i = j + 1
	}
}

// identByte reports whether b can extend a Go identifier (ASCII view —
// fixture and repo identifiers are ASCII).
func identByte(b byte) bool {
	return b == '_' ||
		('0' <= b && b <= '9') || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z')
}
