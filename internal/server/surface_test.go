package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"csce/internal/graph"
	"csce/internal/obs/export"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/surface.golden from the current tree")

// path6Pattern has 27.9 million embeddings in K20: long enough for a 1 ms
// deadline or a hang-up to cut it short, while its twigs stay small, so a
// sharded run never materializes much before it is stopped.
const path6Pattern = "t undirected\nv 0 0\nv 1 0\nv 2 0\nv 3 0\nv 4 0\nv 5 0\n" +
	"e 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"

// disconnectedPattern is two separate edges: the single-store planner
// refuses it (422).
const disconnectedPattern = "t undirected\nv 0 0\nv 1 0\nv 2 0\nv 3 0\ne 0 1\ne 2 3\n"

// surfaceGraphs are the two backends every surface test drives: K20 as
// one store and the same graph as four shards.
var surfaceGraphs = []string{"solo", "sharded"}

// surfaceServer boots a daemon whose every /metrics block is populated: a
// single-store and a K=4 sharded copy of K20, a trace exporter aimed at an
// in-process collector, a JSON logger, and a slow-query threshold of 1 ns
// so every query is captured.
func surfaceServer(t *testing.T) (string, *Server, *syncBuffer) {
	t.Helper()
	col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	t.Cleanup(col.Close)
	exp, err := export.New(export.Config{Endpoint: col.URL, Linger: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	base, s := startShardedServer(t, Config{
		MaxLimit:           1 << 30,
		SlowQueryThreshold: time.Nanosecond,
		TraceExporter:      exp,
		Logger:             slog.New(slog.NewJSONHandler(logs, nil)),
	}, graph.Clique(20, 0), 4)
	return base, s, logs
}

// serveMatch runs one /match request in-process and returns the client's
// view of it: the recorder and the trace ID the reply carried.
func serveMatch(s *Server, rec *flushRecorder, name, pattern, query string) string {
	req := httptest.NewRequest("POST", "/v1/graphs/"+name+"/match?"+query, strings.NewReader(pattern))
	s.Handler().ServeHTTP(rec, req)
	return rec.hdr.Get("X-Trace-Id")
}

// replySummary decodes the NDJSON summary line of a recorded reply (nil
// when the reply has none).
func replySummary(t *testing.T, rec *flushRecorder) map[string]any {
	t.Helper()
	rec.mu.Lock()
	body := bytes.Join(append(rec.flushed, rec.unflushed), nil)
	rec.mu.Unlock()
	var summary map[string]any
	for _, line := range bytes.Split(body, []byte("\n")) {
		var doc map[string]any
		if json.Unmarshal(line, &doc) == nil && doc["done"] == true {
			summary = doc
		}
	}
	return summary
}

// queryLog returns the attributes of the msg=query log line stamped with
// the given trace ID (nil when there is none).
func queryLog(t *testing.T, logs *syncBuffer, traceID string) map[string]any {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(logs.String()))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		if line["msg"] == "query" && line["trace_id"] == traceID {
			return line
		}
	}
	return nil
}

// slowlogHas reports whether /debug/slowlog holds a record of the trace.
func slowlogHas(t *testing.T, base, traceID string) bool {
	t.Helper()
	var doc struct {
		Records []struct {
			TraceID string `json:"trace_id"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(getBody(t, base+"/debug/slowlog")), &doc); err != nil {
		t.Fatal(err)
	}
	for _, r := range doc.Records {
		if r.TraceID == traceID {
			return true
		}
	}
	return false
}

// outcomeCounters are the /metrics counters of which exactly one moves per
// match request.
var outcomeCounters = []string{
	"queries_ok", "queries_rejected", "queries_cancelled", "queries_timed_out",
	"queries_bad_request", "queries_errored",
}

// TestMatchOutcomeMatrix runs every way a match can end on both backends.
// Each request gets its status, moves exactly one outcome counter, and —
// when it became a query (anything but a 4xx) — leaves a msg=query log
// line and a slowlog record stamped with the trace ID its reply carried.
func TestMatchOutcomeMatrix(t *testing.T) {
	base, s, logs := surfaceServer(t)
	cases := []struct {
		name      string
		pattern   string
		query     string
		failAfter int // flushes before the client hangs up (0: never)
		status    int
		counter   string
	}{
		{"ok", pathPattern3, "", 0, http.StatusOK, "queries_ok"},
		{"limit", pathPattern3, "limit=5", 0, http.StatusOK, "queries_ok"},
		{"reject", impossiblePattern, "", 0, http.StatusOK, "queries_ok"},
		{"timeout", path6Pattern, "timeout_ms=1", 0, http.StatusOK, "queries_timed_out"},
		{"disconnect", path6Pattern, "", 1, http.StatusOK, "queries_cancelled"},
		{"bad-pattern", "not a graph", "", 0, http.StatusBadRequest, "queries_bad_request"},
		{"unprocessable", "", "", 0, http.StatusUnprocessableEntity, "queries_bad_request"},
	}
	for _, name := range surfaceGraphs {
		for _, tc := range cases {
			pattern, query := tc.pattern, tc.query
			if tc.name == "unprocessable" {
				// Single-store refuses to plan a disconnected pattern; a
				// sharded graph refuses the vertex-induced variant.
				pattern = disconnectedPattern
				if name == "sharded" {
					pattern, query = pathPattern3, "variant=vertex"
				}
			}
			before := getMetrics(t, base)
			rec := newFlushRecorder(tc.failAfter)
			traceID := serveMatch(s, rec, name, pattern, query)
			after := getMetrics(t, base)

			label := name + "/" + tc.name
			if got := rec.status(); got != tc.status {
				t.Errorf("%s: status %d, want %d", label, got, tc.status)
			}
			if !traceIDRe.MatchString(traceID) {
				t.Errorf("%s: X-Trace-Id %q", label, traceID)
			}
			if d := metric(t, after, "queries_total") - metric(t, before, "queries_total"); d != 1 {
				t.Errorf("%s: queries_total moved by %v", label, d)
			}
			for _, c := range outcomeCounters {
				d := metric(t, after, c) - metric(t, before, c)
				want := 0.0
				if c == tc.counter {
					want = 1
				}
				if d != want {
					t.Errorf("%s: %s moved by %v, want %v", label, c, d, want)
				}
			}
			if tc.status != http.StatusOK {
				continue
			}
			if queryLog(t, logs, traceID) == nil {
				t.Errorf("%s: no msg=query log line with trace_id %s", label, traceID)
			}
			if !slowlogHas(t, base, traceID) {
				t.Errorf("%s: no slowlog record with trace_id %s", label, traceID)
			}
		}
	}
}

// TestStageTimesHaveOneMeaning: read_ms, plan_ms, exec_ms and stream_ms
// are the same numbers wherever a query reports them, and as disjoint
// stages they add up to no more than the query's total.
func TestStageTimesHaveOneMeaning(t *testing.T) {
	_, s, logs := surfaceServer(t)
	rec := newFlushRecorder(0)
	traceID := serveMatch(s, rec, "solo", path6Pattern, "limit=20000")
	summary, logged := replySummary(t, rec), queryLog(t, logs, traceID)
	if summary == nil || logged == nil {
		t.Fatalf("summary %v, log line %v", summary, logged)
	}
	us := func(doc map[string]any, key string) int64 {
		v, ok := doc[key].(float64)
		if !ok {
			t.Fatalf("%s missing: %v", key, doc)
		}
		return int64(math.Round(v * 1e3))
	}
	for _, key := range []string{"read_ms", "plan_ms", "exec_ms"} {
		if us(summary, key) != us(logged, key) {
			t.Errorf("%s: summary %v, log %v", key, summary[key], logged[key])
		}
	}
	if us(logged, "exec_ms") == 0 {
		t.Errorf("a 20 000-embedding search took exec_ms 0: %v", logged)
	}
	stages := us(logged, "read_ms") + us(logged, "plan_ms") + us(logged, "exec_ms") + us(logged, "stream_ms")
	if total := us(logged, "total_ms"); stages > total {
		t.Errorf("read+plan+exec+stream = %d µs > total %d µs: %v", stages, total, logged)
	}

	rec = newFlushRecorder(0)
	traceID = serveMatch(s, rec, "sharded", pathPattern3, "")
	if logged = queryLog(t, logs, traceID); logged == nil {
		t.Fatal("no sharded log line")
	}
	if stages, total := us(logged, "plan_ms")+us(logged, "exec_ms"), us(logged, "total_ms"); stages > total {
		t.Errorf("sharded plan+exec = %d µs > total %d µs: %v", stages, total, logged)
	}
}

// TestMatchSurfaceGolden pins the daemon's observable surface in
// testdata/surface.golden: every /metrics JSON key path, every Prometheus
// family with its type and label names, and the key sets of the msg=query
// log line and the NDJSON summary for each backend and each way a query
// ends. Graph names are normalized to <graph>. Run with -update to rewrite
// the file after an intended change, and review its diff.
func TestMatchSurfaceGolden(t *testing.T) {
	base, s, logs := surfaceServer(t)
	var lines []string
	add := func(kind, what string, keys []string) {
		sort.Strings(keys)
		lines = append(lines, kind+" "+what+": "+strings.Join(keys, " "))
	}
	for _, name := range surfaceGraphs {
		for _, c := range []struct{ name, pattern, query string }{
			{"ok", pathPattern3, ""},
			{"limit", pathPattern3, "limit=5"},
			{"reject", impossiblePattern, ""},
			{"timeout", path6Pattern, "timeout_ms=1"},
			{"profile", pathPattern3, "profile=1"},
		} {
			rec := newFlushRecorder(0)
			traceID := serveMatch(s, rec, name, c.pattern, c.query)
			summary := replySummary(t, rec)
			logged := queryLog(t, logs, traceID)
			if summary == nil || logged == nil {
				t.Fatalf("%s/%s: summary %v, log line %v", name, c.name, summary, logged)
			}
			var logKeys, summaryKeys []string
			for k := range logged {
				if k != "time" && k != "level" && k != "msg" {
					logKeys = append(logKeys, k)
				}
			}
			for k := range summary {
				summaryKeys = append(summaryKeys, k)
			}
			add("log", name+"/"+c.name, logKeys)
			add("summary", name+"/"+c.name, summaryKeys)
		}
	}

	paths := map[string]bool{}
	jsonKeyPaths(getMetrics(t, base), "", paths)
	for p := range paths {
		lines = append(lines, "metrics "+p)
	}
	for fam, desc := range promFamilies(t, getBody(t, base+"/metrics?format=prom")) {
		lines = append(lines, "prom "+fam+" "+desc)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "surface.golden")
	if *updateSurface {
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
		t.Errorf("surface differs from %s (run with -update and review the diff):\n%s", golden, lineDiff(string(want), got))
	}
}

// jsonKeyPaths collects the leaf key paths of a decoded JSON document:
// objects descend by key, arrays by "[]", graph names become <graph>.
func jsonKeyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			for _, g := range surfaceGraphs {
				if k == g {
					k = "<graph>"
				}
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			jsonKeyPaths(child, p, out)
		}
	case []any:
		if len(x) == 0 {
			out[prefix+"[]"] = true
		}
		for _, child := range x {
			jsonKeyPaths(child, prefix+"[]", out)
		}
	default:
		out[prefix] = true
	}
}

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE (\S+) (\S+)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? \S+$`)
	promLabelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
)

// promFamilies maps each family of a Prometheus exposition to its type
// and the sorted label names its samples carry.
func promFamilies(t *testing.T, body string) map[string]string {
	t.Helper()
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			types[m[1]] = m[2]
			labels[m[1]] = map[string]bool{}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsable exposition line %q", line)
		}
		fam := m[1]
		if _, ok := types[fam]; !ok {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, sfx); base != fam && types[base] == "histogram" {
					fam = base
				}
			}
		}
		if _, ok := types[fam]; !ok {
			t.Fatalf("sample %q has no # TYPE line", line)
		}
		for _, l := range promLabelRe.FindAllStringSubmatch(m[2], -1) {
			labels[fam][l[1]] = true
		}
	}
	out := make(map[string]string, len(types))
	for fam, typ := range types {
		var names []string
		for l := range labels[fam] {
			names = append(names, l)
		}
		sort.Strings(names)
		out[fam] = typ + " {" + strings.Join(names, ",") + "}"
	}
	return out
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var out []string
	for l, n := range w {
		if g[l] < n {
			out = append(out, "- "+l)
		}
	}
	for l, n := range g {
		if w[l] < n {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
