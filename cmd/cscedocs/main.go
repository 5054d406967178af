// Command cscedocs is the flag/documentation drift gate behind `make
// docscheck`: every flag the user-facing binaries define must be
// documented, and every flag the docs' tables list must exist. It parses
// the command sources (go/ast, stdlib only) for flag registrations on the
// conventional `fs` FlagSet and requires each collected name to appear as
// `-name` somewhere in the doc set (README.md or OPERATIONS.md). In the
// other direction, every flag-table row (a line starting "| `-name`") must
// name a flag one of the commands defines. A flag that exists in the
// binary but not in the docs, or a table row for a flag that was removed
// or renamed, fails CI with the exact list, so the operator handbook
// cannot silently rot.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cscedocs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root = fs.String("root", ".", "repository root to scan")
		cmds = fs.String("cmds", "cmd/csced,cmd/cscematch,cmd/cscebenchserve",
			"comma-separated command directories whose flags must be documented")
		docs = fs.String("docs", "README.md,OPERATIONS.md",
			"comma-separated doc files (relative to -root) that together must mention every flag")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	docNames := strings.Split(*docs, ",")
	docTexts := make([]string, len(docNames))
	for i, name := range docNames {
		data, err := os.ReadFile(filepath.Join(*root, name))
		if err != nil {
			fmt.Fprintf(stderr, "cscedocs: %v\n", err)
			return 1
		}
		docTexts[i] = string(data)
	}
	docText := strings.Join(docTexts, "\n")

	failed := false
	defined := map[string]bool{}
	for _, dir := range strings.Split(*cmds, ",") {
		flags, err := collectFlags(filepath.Join(*root, dir))
		if err != nil {
			fmt.Fprintf(stderr, "cscedocs: %s: %v\n", dir, err)
			return 1
		}
		if len(flags) == 0 {
			fmt.Fprintf(stderr, "cscedocs: %s: no flag registrations found (is the scanner stale?)\n", dir)
			failed = true
			continue
		}
		for _, name := range flags {
			defined[name] = true
		}
		missing := missingFlags(flags, docText)
		for _, name := range missing {
			fmt.Fprintf(stderr, "cscedocs: %s: flag -%s is not documented in %s\n", dir, name, *docs)
		}
		if len(missing) > 0 {
			failed = true
		} else {
			fmt.Fprintf(stdout, "cscedocs: %s: %d flags documented\n", dir, len(flags))
		}
	}
	for i, name := range docNames {
		for _, row := range staleRows(docTexts[i], defined) {
			fmt.Fprintf(stderr, "cscedocs: %s:%d: flag-table row -%s names no flag of %s\n", name, row.line, row.flag, *cmds)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// flagMethods maps the flag.FlagSet registration methods to the argument
// position of the flag-name string literal.
var flagMethods = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "Var": 1,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1,
}

// collectFlags parses every non-test Go file in dir and returns the
// sorted, deduplicated flag names registered on a receiver named `fs` or
// the `flag` package itself — the convention all csce commands follow.
func collectFlags(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				argPos, ok := flagMethods[sel.Sel.Name]
				if !ok || len(call.Args) <= argPos {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				if !ok || (recv.Name != "fs" && recv.Name != "flag") {
					return true
				}
				lit, ok := call.Args[argPos].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if name, err := strconv.Unquote(lit.Value); err == nil && name != "" {
					seen[name] = true
				}
				return true
			})
		}
	}
	flags := make([]string, 0, len(seen))
	for name := range seen {
		flags = append(flags, name)
	}
	sort.Strings(flags)
	return flags, nil
}

// missingFlags returns the flags with no `-name` mention in the doc text.
func missingFlags(flags []string, docText string) []string {
	var missing []string
	for _, name := range flags {
		if !documented(docText, name) {
			missing = append(missing, name)
		}
	}
	return missing
}

// tableRow is one flag-table row of a doc file: its 1-based line number
// and the flag name in its first cell.
type tableRow struct {
	line int
	flag string
}

// staleRows returns the rows of doc that start "| `-name`" where no command
// defines name.
func staleRows(doc string, defined map[string]bool) []tableRow {
	var stale []tableRow
	for i, line := range strings.Split(doc, "\n") {
		rest, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			continue
		}
		n := 0
		for n < len(rest) && wordByte(rest[n]) {
			n++
		}
		if name := rest[:n]; name != "" && !defined[name] {
			stale = append(stale, tableRow{line: i + 1, flag: name})
		}
	}
	return stale
}

// documented reports whether doc mentions `-name` as a standalone flag
// token: the character before the dash and after the name must not extend
// the word, so `-data` is not satisfied by `-dataset` and `-shard` is not
// satisfied by `-shard-scheme`.
func documented(doc, name string) bool {
	target := "-" + name
	for i := 0; ; {
		j := strings.Index(doc[i:], target)
		if j < 0 {
			return false
		}
		j += i
		end := j + len(target)
		if (j == 0 || !wordByte(doc[j-1])) && (end == len(doc) || !wordByte(doc[end])) {
			return true
		}
		i = j + 1
	}
}

// wordByte reports whether b would extend a flag-name token.
func wordByte(b byte) bool {
	return b == '-' || b == '_' ||
		('0' <= b && b <= '9') || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z')
}
