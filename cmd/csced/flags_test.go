package main

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateFlags = flag.Bool("update", false, "rewrite testdata/flags.golden from the current tree")

// flagSources are the commands whose flag surface flags.golden pins.
var flagSources = map[string]string{
	"csced":     "main.go",
	"cscematch": filepath.Join("..", "cscematch", "main.go"),
}

// TestFlagsGolden pins every csced and cscematch flag with its default, as
// written in the source, in testdata/flags.golden. Adding, removing or
// re-defaulting a knob fails here until the file is rewritten with -update,
// so the change shows up as a reviewed golden diff.
func TestFlagsGolden(t *testing.T) {
	var lines []string
	for cmd, path := range flagSources {
		flags, err := sourceFlags(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(flags) == 0 {
			t.Fatalf("%s: no flag definitions found in %s", cmd, path)
		}
		for _, f := range flags {
			lines = append(lines, cmd+" "+f)
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "flags.golden")
	if *updateFlags {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("flag surface differs from %s (run with -update and review the diff):\n--- want\n%s--- got\n%s", golden, want, got)
	}
}

// sourceFlags returns "-name default" for every fs.<Type>(name, default,
// usage) and fs.Var(value, name, usage) call in one source file. A Var
// flag's default is its value's zero rendering, "".
func sourceFlags(path string) ([]string, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	var out []string
	var walkErr error
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" || len(call.Args) != 3 {
			return true
		}
		nameArg, def := call.Args[0], call.Args[1]
		if sel.Sel.Name == "Var" {
			nameArg, def = call.Args[1], nil
		}
		lit, ok := nameArg.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			walkErr = err
			return false
		}
		text := `""`
		if def != nil {
			var buf bytes.Buffer
			if err := printer.Fprint(&buf, fset, def); err != nil {
				walkErr = err
				return false
			}
			text = buf.String()
		}
		out = append(out, "-"+name+" "+text)
		return true
	})
	return out, walkErr
}
