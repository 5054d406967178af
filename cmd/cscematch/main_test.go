package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const testData = `t undirected
v 0 A
v 1 A
v 2 A
v 3 B
e 0 1
e 1 2
e 0 2
e 2 3
`

const testPattern = `t undirected
v 0 A
v 1 A
v 2 A
e 0 1
e 1 2
e 0 2
`

func writeFiles(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	data := filepath.Join(dir, "data.graph")
	pattern := filepath.Join(dir, "pattern.graph")
	if err := os.WriteFile(data, []byte(testData), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pattern, []byte(testPattern), 0o644); err != nil {
		t.Fatal(err)
	}
	return data, pattern
}

func TestMatchPatternFile(t *testing.T) {
	data, pattern := writeFiles(t)
	var out, errOut bytes.Buffer
	if err := run([]string{"-data", data, "-pattern", pattern, "-print", "-plan"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// One triangle, 6 automorphic mappings.
	if !strings.Contains(out.String(), "embeddings: 6") {
		t.Fatalf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "plan[") {
		t.Fatal("-plan output missing")
	}
	if strings.Count(out.String(), "u0->") != 6 {
		t.Fatal("-print must list all 6 mappings")
	}
}

func TestMatchQuery(t *testing.T) {
	data, _ := writeFiles(t)
	var out, errOut bytes.Buffer
	err := run([]string{"-data", data, "-query", "MATCH (x:A)--(y:A)--(z:A), (x)--(z)", "-print"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "embeddings: 6") {
		t.Fatalf("query output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "x->v") {
		t.Fatal("query variable names missing from -print output")
	}
}

func TestMatchSymmetryBreaking(t *testing.T) {
	data, pattern := writeFiles(t)
	var out, errOut bytes.Buffer
	if err := run([]string{"-data", data, "-pattern", pattern, "-symbreak"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "embeddings: 1") ||
		!strings.Contains(out.String(), "automorphisms: 6") {
		t.Fatalf("symbreak output:\n%s", out.String())
	}
}

func TestSaveAndLoadIndex(t *testing.T) {
	data, pattern := writeFiles(t)
	idx := filepath.Join(t.TempDir(), "data.ccsr")
	var out, errOut bytes.Buffer
	if err := run([]string{"-data", data, "-save-index", idx}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatal("save-index output missing")
	}
	out.Reset()
	if err := run([]string{"-index", idx, "-pattern", pattern}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "embeddings: 6") {
		t.Fatalf("index-backed match output:\n%s", out.String())
	}
}

func TestMatchErrors(t *testing.T) {
	data, pattern := writeFiles(t)
	var out, errOut bytes.Buffer
	cases := [][]string{
		{},              // no data
		{"-data", data}, // no pattern
		{"-data", data, "-pattern", pattern, "-variant", "bogus"},
		{"-data", data, "-pattern", pattern, "-mode", "bogus"},
		{"-data", "/nonexistent", "-pattern", pattern},
		{"-data", data, "-query", "MATCH ("},
	}
	for _, args := range cases {
		if err := run(args, &out, &errOut); err == nil {
			t.Fatalf("args %v must error", args)
		}
	}
}

func TestProfileAndDotFlags(t *testing.T) {
	data, pattern := writeFiles(t)
	var out, errOut bytes.Buffer
	if err := run([]string{"-data", data, "-pattern", pattern, "-profile", "-dot"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph H {") {
		t.Fatal("-dot output missing")
	}
	if !strings.Contains(out.String(), "builds") {
		t.Fatal("-profile output missing")
	}
}

func TestTimeoutCancelsSearch(t *testing.T) {
	// A clique-6 pattern in K40 has ~2.8e9 mappings; only cancellation can
	// end the run quickly. -timeout goes through the same context path the
	// csced daemon uses for per-query deadlines.
	dir := t.TempDir()
	var data, pattern strings.Builder
	data.WriteString("t undirected\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&data, "v %d A\n", i)
	}
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			fmt.Fprintf(&data, "e %d %d\n", i, j)
		}
	}
	pattern.WriteString("t undirected\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&pattern, "v %d A\n", i)
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			fmt.Fprintf(&pattern, "e %d %d\n", i, j)
		}
	}
	dataPath := filepath.Join(dir, "k40.graph")
	patternPath := filepath.Join(dir, "k6.graph")
	if err := os.WriteFile(dataPath, []byte(data.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(patternPath, []byte(pattern.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	start := time.Now()
	err := run([]string{"-data", dataPath, "-pattern", patternPath, "-timeout", "50ms"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("-timeout did not stop the search (took %v)", elapsed)
	}
	if !strings.Contains(out.String(), "search cancelled") {
		t.Fatalf("missing cancellation notice:\n%s", out.String())
	}
}
