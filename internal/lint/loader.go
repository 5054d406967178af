package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, typechecked module package ready for analysis.
// Only non-test files are loaded: the invariants the suite enforces are
// production-code contracts, and typechecking test variants would drag in
// the testing dependency graph for no additional signal.
type Package struct {
	// Path is the import path ("csce/internal/server").
	Path string
	// ModulePath is the enclosing module ("csce").
	ModulePath string
	// ModuleDir is the module root on disk — where module-level companion
	// files (ALLOC_BUDGET.json) are resolved from.
	ModuleDir string
	Fset      *token.FileSet
	Files     []*ast.File
	// Filenames holds the absolute path of Files[i].
	Filenames []string
	Types     *types.Package
	Info      *types.Info

	// Allocs holds the package's heap-allocation sites parsed from the
	// compiler's escape analysis, attached by AttachAllocs. Nil until then;
	// AllocsLoaded distinguishes "not loaded" from "loaded, none found" so
	// the allocfree check can fail loudly instead of passing vacuously.
	Allocs       []AllocSite
	AllocsLoaded bool
}

// Load lists, parses, and typechecks every module package matched by the
// patterns (e.g. "./...") under dir, resolving out-of-module imports
// through the compiler's export data. It is the stdlib-only equivalent of
// x/tools' packages.Load: `go list -e -export -deps -json` supplies the
// file sets and export-data locations, go/parser + go/types do the rest.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,Name,GoFiles,Export,Standard,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Never touch the network during analysis: a missing dependency fails
	// the build gate, it is not something to fetch.
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	type listModule struct {
		Path string
		Dir  string
	}
	type listPackage struct {
		ImportPath string
		Dir        string
		Name       string
		GoFiles    []string
		Export     string
		Standard   bool
		Module     *listModule
	}

	var modPkgs []listPackage
	exports := map[string]string{}
	modulePath := ""
	moduleDir := ""
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Module != nil && !lp.Standard {
			if modulePath == "" {
				modulePath = lp.Module.Path
				moduleDir = lp.Module.Dir
			}
			if lp.Module.Path == modulePath {
				// -deps emits dependencies before dependents, so appending
				// preserves a valid typechecking order.
				modPkgs = append(modPkgs, lp)
				continue
			}
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	if len(modPkgs) == 0 {
		return nil, fmt.Errorf("go list %s: no module packages found under %s", strings.Join(patterns, " "), dir)
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	imp := &moduleImporter{
		exports: exports,
		checked: checked,
	}
	imp.gc = importer.ForCompiler(fset, "gc", imp.lookup)

	var pkgs []*Package
	for _, lp := range modPkgs {
		var (
			files     []*ast.File
			filenames []string
		)
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			af, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", path, err)
			}
			files = append(files, af)
			filenames = append(filenames, path)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{
			Importer: imp,
			// An unresolvable import makes some downstream expressions
			// untypeable; go build reports it, and analysis degrades
			// gracefully, so collect instead of abort.
			Error: func(error) {},
		}
		tp, _ := conf.Check(lp.ImportPath, fset, files, info)
		pkgs = append(pkgs, &Package{
			Path:       lp.ImportPath,
			ModulePath: modulePath,
			ModuleDir:  moduleDir,
			Fset:       fset,
			Files:      files,
			Filenames:  filenames,
			Types:      tp,
			Info:       info,
		})
		checked[lp.ImportPath] = tp
	}
	return pkgs, nil
}

// moduleImporter resolves module-internal imports from the packages
// typechecked so far and everything else from gc export data.
type moduleImporter struct {
	exports map[string]string
	checked map[string]*types.Package
	gc      types.Importer
}

func (m *moduleImporter) lookup(path string) (io.ReadCloser, error) {
	f, ok := m.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.gc.Import(path)
}
