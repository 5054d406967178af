package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// fixture returns the -C argument for one of internal/lint's golden
// fixture modules, so these tests drive the real driver end-to-end over
// the same trees the analyzer unit tests use.
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", "src", name)
}

func runLint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFindingsFailTheRun(t *testing.T) {
	code, out, _ := runLint(t, "-C", fixture("errchecklite"), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"fixture.go:20:2: [errchecklite] mayFail returns an error that is not checked",
		"fixture.go:25:2: [errchecklite] os.Create returns an error that is not checked",
		"fixture.go:67:2: [errchecklite] f.Sync returns an error that is not checked",
		"fixture.go:68:2: [errchecklite] os.Rename returns an error that is not checked",
		"fixture.go:70:2: [errchecklite] bw.Flush returns an error that is not checked",
		"fixture.go:71:2: [errchecklite] f.Close returns an error that is not checked",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 6 {
		t.Errorf("got %d findings, want exactly 6:\n%s", n, out)
	}
}

func TestCleanFixturePasses(t *testing.T) {
	code, out, _ := runLint(t, "-C", fixture("clean"), "./...")
	if code != 0 || out != "" {
		t.Fatalf("exit = %d, output = %q; want 0 and empty", code, out)
	}
}

func TestChecksSubset(t *testing.T) {
	// The errchecklite fixture is dirty for errchecklite but clean for
	// refbalance, so -checks decides the exit status.
	code, out, _ := runLint(t, "-C", fixture("errchecklite"), "-checks", "refbalance", "./...")
	if code != 0 || out != "" {
		t.Fatalf("-checks refbalance: exit = %d, output = %q; want 0 and empty", code, out)
	}
	code, out, _ = runLint(t, "-C", fixture("errchecklite"), "-checks", "refbalance,errchecklite", "./...")
	if code != 1 || !strings.Contains(out, "[errchecklite]") {
		t.Fatalf("-checks refbalance,errchecklite: exit = %d, output = %q; want findings", code, out)
	}
}

func TestUnknownCheckIsUsageError(t *testing.T) {
	code, _, errOut := runLint(t, "-checks", "nosuchcheck", "./...")
	if code != 2 || !strings.Contains(errOut, "unknown check") {
		t.Fatalf("exit = %d, stderr = %q; want 2 with explanation", code, errOut)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runLint(t, "-C", fixture("errchecklite"), "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var report struct {
		SchemaVersion int `json:"schema_version"`
		Findings      []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Check   string `json:"check"`
			Message string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if report.SchemaVersion != 1 {
		t.Fatalf("schema_version = %d, want 1", report.SchemaVersion)
	}
	if len(report.Findings) != 6 {
		t.Fatalf("got %d findings, want 6: %+v", len(report.Findings), report.Findings)
	}
	f := report.Findings[0]
	if f.File != "fixture.go" || f.Line != 20 || f.Check != "errchecklite" || !strings.Contains(f.Message, "mayFail") {
		t.Errorf("unexpected first finding %+v", f)
	}
	// Determinism: findings are sorted by position, so two runs byte-match.
	code2, out2, _ := runLint(t, "-C", fixture("errchecklite"), "-json", "./...")
	if code2 != code || out2 != out {
		t.Errorf("JSON output is not deterministic across runs")
	}
}

func TestSuppressionEndToEnd(t *testing.T) {
	code, out, _ := runLint(t, "-C", fixture("ignore"), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	// The fixture seeds five os.Remove findings; two are suppressed by
	// valid //lint:ignore directives.
	if n := strings.Count(out, "[errchecklite]"); n != 3 {
		t.Errorf("got %d surviving findings, want 3:\n%s", n, out)
	}
	if strings.Contains(out, "fixture.go:11:") || strings.Contains(out, "fixture.go:16:") {
		t.Errorf("suppressed lines leaked into output:\n%s", out)
	}
}

func TestListChecks(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"atomicconsistency", "mutexdiscipline", "errchecklite", "allocfree", "refbalance", "lockorder"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

// TestRepositoryIsClean is the acceptance bar: the full suite over the
// whole module must produce zero findings. If this fails, either fix the
// finding or suppress it with a justified //lint:ignore.
func TestRepositoryIsClean(t *testing.T) {
	code, out, errOut := runLint(t, "-C", filepath.Join("..", ".."), "./...")
	if code != 0 {
		t.Fatalf("cscelint is not clean on the repository (exit %d):\n%s%s", code, out, errOut)
	}
}
