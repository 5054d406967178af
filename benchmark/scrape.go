package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// metricsDoc is csced's JSON /metrics document. It is read before and
// after a measured run, never during, and only the differences are used.
type metricsDoc map[string]any

func fetchMetrics(base string) (metricsDoc, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return doc, nil
}

// num reads a top-level numeric counter (0 when absent).
func (d metricsDoc) num(key string) float64 {
	v, _ := d[key].(float64)
	return v
}

// liveNum reads one numeric field of live.<graph>.
func (d metricsDoc) liveNum(graphName, key string) float64 {
	live, _ := d["live"].(map[string]any)
	g, _ := live[graphName].(map[string]any)
	v, _ := g[key].(float64)
	return v
}

// graphInfo is one entry of GET /v1/graphs.
type graphInfo struct {
	Name    string `json:"name"`
	LastSeq uint64 `json:"last_seq"`
}

func fetchGraph(base, name string) (graphInfo, error) {
	resp, err := http.Get(base + "/v1/graphs")
	if err != nil {
		return graphInfo{}, err
	}
	defer resp.Body.Close()
	var doc struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return graphInfo{}, err
	}
	for _, g := range doc.Graphs {
		if g.Name == name {
			return g, nil
		}
	}
	return graphInfo{}, fmt.Errorf("graph %q is not listed", name)
}

// logOffset is the current size of the daemon's stderr file: log lines
// written from here on belong to the measured run.
func logOffset(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// logPhases reads csced's structured stderr from offset and collects, per
// numeric *_ms attribute of the "query" and "mutation batch" lines, every
// value in milliseconds. The daemon logs each phase with microsecond
// resolution — exact per request, unlike its power-of-two /metrics
// histograms. Keys: total_ms, admission_ms, plan_ms, exec_ms, stream_ms,
// scatter_ms, join_ms, and mutate_total_ms for mutation batches.
func logPhases(path string, offset int64) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		prefix := ""
		switch {
		case strings.Contains(line, " msg=query "):
		case strings.Contains(line, ` msg="mutation batch" `):
			prefix = "mutate_"
		default:
			continue
		}
		for _, field := range strings.Fields(line) {
			k, v, ok := strings.Cut(field, "=")
			if !ok || !strings.HasSuffix(k, "_ms") {
				continue
			}
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[prefix+k] = append(out[prefix+k], f)
			}
		}
	}
	return out, sc.Err()
}
