package server

import (
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"csce/internal/graph"
)

func fetchProm(t *testing.T, base string, viaHeader bool) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaHeader {
		req.Header.Set("Accept", "text/plain")
	} else {
		req.URL.RawQuery = "format=prom"
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestPromExposition(t *testing.T) {
	base, _ := startServer(t, Config{}, map[string]*graph.Graph{"g": pathOf(4)})

	// Generate traffic for every metric class: queries, a mutation, and an
	// endpoint histogram observation.
	resp := postMatch(t, base, "g", pathPattern2, url.Values{})
	readStream(t, resp)
	if mresp, _ := postMutate(t, base, "g", `{"mutations":[{"op":"insert_edge","src":0,"dst":2}]}`); mresp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d", mresp.StatusCode)
	}

	for _, viaHeader := range []bool{false, true} {
		body := fetchProm(t, base, viaHeader)

		for _, want := range []string{
			"# TYPE csce_queries_total counter",
			"csce_queries_total 1",
			"csce_mutations_ok 1",
			"# TYPE csce_match_slots gauge",
			"# TYPE csce_live_epoch gauge",
			`csce_live_epoch{graph="g"} 1`,
			`csce_live_edges_inserted{graph="g"} 1`,
			"# TYPE csce_live_wal_checkpoints counter",
			`csce_live_oldest_resumable_seq{graph="g"} 0`,
			"# TYPE csce_phase_latency_seconds histogram",
			"# TYPE csce_endpoint_latency_seconds histogram",
			`csce_endpoint_latency_seconds_bucket{endpoint="match",le="+Inf"} 1`,
			`csce_endpoint_latency_seconds_count{endpoint="match"} 1`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("exposition missing %q (viaHeader=%v)", want, viaHeader)
			}
		}

		// One log, one checkpoint: the families of the checkpoint chain and
		// the separate resume log are gone.
		for _, gone := range []string{"csce_live_wal_chain_", "csce_live_resume_log_"} {
			if strings.Contains(body, gone) {
				t.Errorf("exposition still carries a %s* family (viaHeader=%v)", gone, viaHeader)
			}
		}

		// Histogram sanity: buckets are cumulative (non-decreasing) and the
		// +Inf bucket equals _count for the match endpoint.
		bucketRe := regexp.MustCompile(`csce_endpoint_latency_seconds_bucket\{endpoint="match",le="([^"]+)"\} (\d+)`)
		var prev uint64
		matches := bucketRe.FindAllStringSubmatch(body, -1)
		if len(matches) < 10 {
			t.Fatalf("expected a full bucket series, got %d lines", len(matches))
		}
		for _, m := range matches {
			n, err := strconv.ParseUint(m[2], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if n < prev {
				t.Fatalf("bucket series not cumulative at le=%s: %d < %d", m[1], n, prev)
			}
			prev = n
		}
		last := matches[len(matches)-1]
		if last[1] != "+Inf" || last[2] != "1" {
			t.Fatalf("final bucket must be +Inf with the count: %v", last)
		}
	}

	// JSON remains the default.
	m := getMetrics(t, base)
	if _, ok := m["queries_total"]; !ok {
		t.Fatal("default /metrics must stay JSON")
	}
}
