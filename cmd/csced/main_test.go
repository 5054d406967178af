package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeTempGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.graph")
	data := "t undirected\n" +
		"v 0 A\nv 1 A\nv 2 A\nv 3 B\n" +
		"e 0 1\ne 1 2\ne 0 2\ne 2 3\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDaemonServesAndDrains(t *testing.T) {
	path := writeTempGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out, errOut bytes.Buffer
	started := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-graph", "tiny=" + path}, &out, &errOut, started)
	}()

	var addr string
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Triangle of A-labeled vertices: 6 ordered embeddings in the data.
	pattern := "t undirected\nv 0 A\nv 1 A\nv 2 A\ne 0 1\ne 1 2\ne 0 2\n"
	mresp, err := http.Post(base+"/v1/graphs/tiny/match", "text/plain", strings.NewReader(pattern))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d: %s", mresp.StatusCode, body)
	}
	if got := strings.Count(string(body), "\n"); got != 7 { // 6 embeddings + summary
		t.Fatalf("expected 6 embeddings + summary, got %d lines:\n%s", got, body)
	}
	if !strings.Contains(string(body), `"done":true`) {
		t.Fatalf("missing summary line:\n%s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
	if !strings.Contains(out.String(), "csced: bye") {
		t.Fatalf("missing shutdown log:\n%s", out.String())
	}
}

func TestDaemonErrors(t *testing.T) {
	ctx := context.Background()
	var out, errOut bytes.Buffer
	if err := run(ctx, nil, &out, &errOut, nil); err == nil {
		t.Fatal("no graphs must error")
	}
	if err := run(ctx, []string{"-graph", "bad"}, &out, &errOut, nil); err == nil {
		t.Fatal("malformed -graph must error")
	}
	if err := run(ctx, []string{"-graph", "g=/does/not/exist"}, &out, &errOut, nil); err == nil {
		t.Fatal("missing file must error")
	}
	if err := run(ctx, []string{"-dataset", "nope"}, &out, &errOut, nil); err == nil {
		t.Fatal("unknown dataset must error")
	}
	if err := run(ctx, []string{"-graph", "bad", "-log-level", "loud"}, &out, &errOut, nil); err == nil {
		t.Fatal("bad -log-level must error")
	}
	// Settings that became constants are refused like any unknown flag,
	// and the interval fsync policy is gone.
	for _, args := range [][]string{
		{"-queue", "8"},
		{"-mutate-slots", "2"},
		{"-mutate-queue", "8"},
		{"-fsync-interval", "1s"},
		{"-slowlog-size", "64"},
		{"-trace-queue", "64"},
		{"-trace-ring", "64"},
		{"-runtime-stats", "1s"},
		{"-drain", "1s"},
		{"-sub-buffer", "64"},
	} {
		errOut.Reset()
		err := run(ctx, append(args, "-dataset", "Yeast"), &out, &errOut, nil)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: got %v, want an undefined-flag error", args, err)
		}
	}
	if err := run(ctx, []string{"-dataset", "Yeast", "-fsync", "interval"}, &out, &errOut, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown fsync policy") {
		t.Fatalf("-fsync interval: got %v, want an unknown-policy error", err)
	}
}

// TestDaemonObservabilityEndpoints boots the daemon with a tiny slow-query
// threshold, pprof enabled, and query logging on, then walks the whole
// observability surface: trace ID in the header and logs, latency
// quantiles in /metrics, the captured record in /debug/slowlog, and the
// pprof index on the private debug listener.
func TestDaemonObservabilityEndpoints(t *testing.T) {
	path := writeTempGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out bytes.Buffer
	errOut := &lockedBuffer{} // slog writes from handler goroutines
	started := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0",
			"-graph", "tiny=" + path,
			"-slow-query", "1ns",
			"-log-level", "info",
		}, &out, errOut, started)
	}()

	var addr string
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	base := "http://" + addr

	pattern := "t undirected\nv 0 A\nv 1 A\ne 0 1\n"
	mresp, err := http.Post(base+"/v1/graphs/tiny/match?profile=1", "text/plain", strings.NewReader(pattern))
	if err != nil {
		t.Fatal(err)
	}
	traceID := mresp.Header.Get("X-Trace-Id")
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if len(traceID) != 16 {
		t.Fatalf("X-Trace-Id %q should be 16 hex chars", traceID)
	}
	if !strings.Contains(string(body), `"trace_id":"`+traceID+`"`) {
		t.Fatalf("summary lacks trace ID %s:\n%s", traceID, body)
	}
	if !strings.Contains(string(body), `"profile":[`) {
		t.Fatalf("?profile=1 summary lacks per-level profile:\n%s", body)
	}

	var metrics map[string]any
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(mr.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if metrics["slow_queries"].(float64) != 1 {
		t.Fatalf("slow_queries = %v, want 1 (threshold 1ns)", metrics["slow_queries"])
	}
	latency := metrics["latency"].(map[string]any)
	if _, ok := latency["phases"].(map[string]any)["exec"]; !ok {
		t.Fatalf("metrics latency block missing exec phase: %v", latency)
	}

	sr, err := http.Get(base + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	slowBody, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	if !strings.Contains(string(slowBody), `"trace_id": "`+traceID+`"`) {
		t.Fatalf("/debug/slowlog lacks the query's trace ID %s:\n%s", traceID, slowBody)
	}

	if !strings.Contains(errOut.String(), "trace_id="+traceID) {
		t.Fatalf("structured log lacks trace_id=%s:\n%s", traceID, errOut.String())
	}

	// The pprof index lives on the private debug listener.
	debugAddr := debugAddrFrom(t, out.String())
	pr, err := http.Get("http://" + debugAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pprofBody, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK || !strings.Contains(string(pprofBody), "goroutine") {
		t.Fatalf("pprof index wrong (status %d):\n%.400s", pr.StatusCode, pprofBody)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
}

// TestDaemonDrainFlushesTraceExport proves the shutdown ordering contract:
// the HTTP listener drains first, then the exporter flushes everything
// queued — so the traces of the last served queries reach the collector
// before run() returns, even with a linger window far longer than the
// whole test (no lost tail spans on SIGTERM).
func TestDaemonDrainFlushesTraceExport(t *testing.T) {
	var colMu sync.Mutex
	var colBodies []string
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		colMu.Lock()
		colBodies = append(colBodies, string(body))
		colMu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer collector.Close()

	path := writeTempGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out bytes.Buffer
	errOut := &lockedBuffer{}
	started := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-graph", "tiny=" + path,
			"-trace-endpoint", collector.URL,
		}, &out, errOut, started)
	}()

	var addr string
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	base := "http://" + addr

	// Serve a few queries and SIGTERM immediately: with the default 200ms
	// linger, these traces are still sitting in the exporter's batch when
	// the shutdown starts — only the drain can deliver them.
	pattern := "t undirected\nv 0 A\nv 1 A\ne 0 1\n"
	var traceIDs []string
	for i := 0; i < 3; i++ {
		mresp, err := http.Post(base+"/v1/graphs/tiny/match", "text/plain", strings.NewReader(pattern))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, mresp.Body)
		mresp.Body.Close()
		if tid := mresp.Header.Get("X-Trace-Id"); tid != "" {
			traceIDs = append(traceIDs, tid)
		}
	}
	if len(traceIDs) != 3 {
		t.Fatalf("collected %d trace IDs, want 3", len(traceIDs))
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}

	// Every served query's trace must already be at the collector — run()
	// has returned, so nothing can deliver them later.
	colMu.Lock()
	all := strings.Join(colBodies, "\n")
	colMu.Unlock()
	for _, tid := range traceIDs {
		if !strings.Contains(all, `"traceId":"0000000000000000`+tid+`"`) {
			t.Fatalf("tail trace %s not flushed before exit; collector saw:\n%.2000s", tid, all)
		}
	}
}

// lockedBuffer makes bytes.Buffer safe for the handler goroutines that
// write log lines while the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// debugAddrFrom extracts the pprof listener address from the startup log.
func debugAddrFrom(t *testing.T, logs string) string {
	t.Helper()
	for _, line := range strings.Split(logs, "\n") {
		if rest, ok := strings.CutPrefix(line, "csced: pprof on http://"); ok {
			return strings.TrimSuffix(rest, "/debug/pprof/")
		}
	}
	t.Fatalf("startup log lacks pprof address:\n%s", logs)
	return ""
}
