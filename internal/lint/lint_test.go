package lint

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goldenChecks maps each fixture directory under testdata/src to the
// checks run over it. Fixtures named after a check exercise that check;
// the ignore fixture proves suppression against errchecklite.
var goldenChecks = map[string][]string{
	"atomicconsistency": {"atomicconsistency"},
	"mutexdiscipline":   {"mutexdiscipline"},
	"errchecklite":      {"errchecklite"},
	"ignore":            {"errchecklite"},
	"allocfree":         {"allocfree"},
	"refbalance":        {"refbalance"},
	"lockorder":         {"lockorder"},
}

// wantRe matches golden expectations: want `regex`, repeatable within one
// comment.
var wantRe = regexp.MustCompile("want\\s+`([^`]+)`")

// expectation is one want annotation, consumed when a diagnostic on its
// line matches.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func loadFixture(t *testing.T, name string, checkNames []string) ([]Diagnostic, []*Package) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	var checks []*Check
	for _, cn := range checkNames {
		c, ok := CheckByName(cn)
		if !ok {
			t.Fatalf("unknown check %q", cn)
		}
		checks = append(checks, c)
		if c == AllocFree {
			if err := AttachAllocs(dir, pkgs, "./..."); err != nil {
				t.Fatalf("AttachAllocs(%s): %v", dir, err)
			}
		}
	}
	return Run(pkgs, checks), pkgs
}

// collectWants extracts the want annotations from a loaded fixture.
func collectWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("bad want pattern %q: %v", m[1], err)
						}
						pos := pkg.Fset.Position(c.Pos())
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

// TestGolden proves each check fires on its seeded violations and stays
// silent on the correct code in the same fixture.
func TestGolden(t *testing.T) {
	names := make([]string, 0, len(goldenChecks))
	for name := range goldenChecks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			diags, pkgs := loadFixture(t, name, goldenChecks[name])
			wants := collectWants(t, pkgs)
			for _, d := range diags {
				rendered := fmt.Sprintf("[%s] %s", d.Check, d.Message)
				found := false
				for _, w := range wants {
					if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(rendered) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.pattern)
				}
			}
		})
	}
}

// TestMalformedDirectives asserts the two "directive" diagnostics (and
// the findings the bad directives fail to suppress) programmatically; a
// want annotation cannot live inside the directive comment it describes.
func TestMalformedDirectives(t *testing.T) {
	diags, _ := loadFixture(t, "directive", []string{"errchecklite"})
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:[%s]", d.Pos.Line, d.Check))
	}
	want := []string{
		"10:[errchecklite]", // the invalid directive suppresses nothing
		"10:[directive]",    // missing reason
		"16:[errchecklite]",
		"16:[directive]", // unknown check name
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("directive fixture: got %v, want %v", got, want)
	}
	for _, d := range diags {
		if d.Check != "directive" {
			continue
		}
		if !strings.Contains(d.Message, "lint:ignore") {
			t.Errorf("directive diagnostic should explain the syntax, got %q", d.Message)
		}
	}
}

// TestAllocBudgetDiscipline drives the two budget failure modes that
// cannot carry want annotations (they are reported at ALLOC_BUDGET.json,
// not at a Go line): a stale entry fails the run, and removing the escape
// data turns annotated functions into loud configuration findings.
func TestAllocBudgetDiscipline(t *testing.T) {
	dir := filepath.Join("testdata", "src", "allocfree")
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Without AttachAllocs the gate must not silently pass.
	diags := Run(pkgs, []*Check{AllocFree})
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "escape analysis was not loaded") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing escape data should be a loud configuration finding, got %v", diags)
	}

	// A budget entry matching no site is stale and fails the run. Point a
	// doctored module at the same sources via an overlay directory.
	stale := t.TempDir()
	for _, name := range []string{"go.mod", "fixture.go"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stale, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	budget := `{"schema_version":1,"allocations":[` +
		`{"func":"csce.pinnedHot","alloc":"make([]int, 0, n)","count":1,"why":"real"},` +
		`{"func":"csce.goodHot","alloc":"make([]int, 99)","count":1,"why":"stale: goodHot allocates nothing"}]}`
	if err := os.WriteFile(filepath.Join(stale, "ALLOC_BUDGET.json"), []byte(budget), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err = Load(stale, "./...")
	if err != nil {
		t.Fatalf("Load(stale): %v", err)
	}
	if err := AttachAllocs(stale, pkgs, "./..."); err != nil {
		t.Fatalf("AttachAllocs(stale): %v", err)
	}
	var staleFindings, unexpected []string
	for _, d := range Run(pkgs, []*Check{AllocFree}) {
		switch {
		case strings.Contains(d.Message, "stale budget entry"):
			staleFindings = append(staleFindings, d.Message)
		case strings.Contains(d.Message, "badHot"),
			strings.Contains(d.Message, "badCheckCascade"):
			// The seeded regressions still fire alongside.
		default:
			unexpected = append(unexpected, d.String())
		}
	}
	if len(staleFindings) != 1 || !strings.Contains(staleFindings[0], "csce.goodHot") {
		t.Errorf("want exactly one stale-entry finding for csce.goodHot, got %v", staleFindings)
	}
	if len(unexpected) > 0 {
		t.Errorf("unexpected findings: %v", unexpected)
	}
}

// TestCheckRegistry keeps the suite's shape stable: unique names,
// resolvable via CheckByName, and every check names the bug it catches —
// its entry in DESIGN.md "Static analysis" carries a recorded true
// positive or a mutation drill no other gate catches.
func TestCheckRegistry(t *testing.T) {
	checks := Checks()
	entries := designEntries(t)
	seen := map[string]bool{}
	for _, c := range checks {
		if c.Name == "" || c.Doc == "" {
			t.Errorf("check %+v lacks a name or doc", c)
		}
		if seen[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		seen[c.Name] = true
		got, ok := CheckByName(c.Name)
		if !ok || got != c {
			t.Errorf("CheckByName(%q) did not round-trip", c.Name)
		}
		entry, ok := entries[c.Name]
		switch {
		case !ok:
			t.Errorf("check %s has no entry in DESIGN.md \"Static analysis\"", c.Name)
		case strings.Contains(entry, "(deleted)"):
			t.Errorf("check %s is registered but DESIGN.md lists it as deleted", c.Name)
		case !strings.Contains(entry, "*True positive:*") && !strings.Contains(entry, "*Drill:*"):
			t.Errorf("DESIGN.md entry for %s names no *True positive:* and no *Drill:*", c.Name)
		}
	}
	if _, ok := CheckByName("nosuchcheck"); ok {
		t.Error("CheckByName accepted an unknown name")
	}
}

// designEntries returns the bullet entries of DESIGN.md's "Static
// analysis" section keyed by the check name in their leading **bold**.
func designEntries(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Static analysis")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	entries := map[string]string{}
	for _, item := range strings.Split(section, "\n- **")[1:] {
		name, _, _ := strings.Cut(item, "**")
		body, _, _ := strings.Cut(item, "\n\n")
		entries[name] = strings.Join(strings.Fields(body), " ") // unwrap lines
	}
	return entries
}

// TestLoadRepo loads the real module and sanity-checks the result shape:
// packages parsed and typechecked. The full clean-repo guarantee lives in
// the cmd/cscelint end-to-end test.
func TestLoadRepo(t *testing.T) {
	pkgs, err := Load("../..", "./internal/lint")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "csce/internal/lint" || p.ModulePath != "csce" {
		t.Fatalf("unexpected identity %q in module %q", p.Path, p.ModulePath)
	}
	if len(p.Files) == 0 || len(p.Files) != len(p.Filenames) {
		t.Fatalf("files/filenames mismatch: %d vs %d", len(p.Files), len(p.Filenames))
	}
	// Typechecking really happened: the AST resolves through go/types.
	resolved := false
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] != nil {
				resolved = true
			}
			return !resolved
		})
	}
	if !resolved {
		t.Fatal("no identifiers resolved; typechecking failed silently")
	}
}
