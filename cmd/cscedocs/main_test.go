package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCollectFlags pins the scanner against the fixture command: both
// value-returning and Var-style registrations are found, nothing else.
func TestCollectFlags(t *testing.T) {
	flags, err := collectFlags(filepath.Join("testdata", "negative", "cmd", "fake"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"addr", "graph", "undocumented"}
	if len(flags) != len(want) {
		t.Fatalf("collected %v, want %v", flags, want)
	}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("collected %v, want %v", flags, want)
		}
	}
}

// TestDocumentedTokenBoundaries pins the whole-token matching rule that
// keeps one flag's mention from masking another's absence.
func TestDocumentedTokenBoundaries(t *testing.T) {
	for _, tc := range []struct {
		doc, name string
		want      bool
	}{
		{"use -addr here", "addr", true},
		{"`-addr`", "addr", true},
		{"(-addr)", "addr", true},
		{"-addr", "addr", true},
		{"-dataset only", "data", false},
		{"-fsync-interval only", "fsync", false},
		{"run-time prose", "time", false},
		{"--addr GNU style", "addr", false},
		{"nothing", "addr", false},
	} {
		if got := documented(tc.doc, tc.name); got != tc.want {
			t.Errorf("documented(%q, %q) = %v, want %v", tc.doc, tc.name, got, tc.want)
		}
	}
}

// TestNegativeFixtureFails is the gate's own gate: a command with an
// undocumented flag, or a doc table row for a flag no command defines,
// must fail the run with that flag named, and the two documented flags
// must not be reported.
func TestNegativeFixtureFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{
		"-root", filepath.Join("testdata", "negative"),
		"-cmds", "cmd/fake",
		"-docs", "README.md",
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("undocumented flag must fail the check; stdout:\n%s", stdout.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "flag -undocumented is not documented") {
		t.Fatalf("missing flag not named:\n%s", out)
	}
	if !strings.Contains(out, "README.md:12: flag-table row -retired names no flag of cmd/fake") {
		t.Fatalf("stale table row not named:\n%s", out)
	}
	if strings.Contains(out, "-addr") || strings.Contains(out, "-graph") {
		t.Fatalf("documented flags reported as missing:\n%s", out)
	}
}

// TestRepoDocsComplete runs the real check from the test: every flag of
// csced, cscematch, and cscebenchserve is documented in README.md or
// OPERATIONS.md. This is the same assertion `make docscheck` enforces in
// CI; failing here means a flag was added or renamed without updating the
// operator docs.
func TestRepoDocsComplete(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-root", filepath.Join("..", "..")}, &stdout, &stderr); code != 0 {
		t.Fatalf("repo docs incomplete (exit %d):\n%s", code, stderr.String())
	}
}
