package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonHelperArg re-enters the test binary as a real csced daemon: crash
// recovery needs a process that can be SIGKILLed mid-batch, which an
// in-process run() cannot simulate.
const daemonHelperArg = "crash-helper-daemon"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == daemonHelperArg {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := run(ctx, os.Args[2:], os.Stdout, os.Stderr, nil)
		stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "csced: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one spawned csced subprocess plus its captured stdout.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	out  *lockedBuffer
}

// spawnDaemon starts the helper daemon and waits for its serving line.
func spawnDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{daemonHelperArg}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderrBuf lockedBuffer
	cmd.Stderr = &stderrBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, out: &lockedBuffer{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.out.Write([]byte(line + "\n"))
			if rest, ok := strings.CutPrefix(line, "csced: serving "); ok {
				if _, a, ok := strings.Cut(rest, "on http://"); ok {
					select {
					case addrCh <- a:
					default:
					}
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("daemon did not start; stdout:\n%s\nstderr:\n%s", d.out.String(), stderrBuf.String())
	}
	return d
}

func (d *daemon) base() string { return "http://" + d.addr }

// mutateBatch posts one batch and returns the acknowledged last_seq, or an
// error once the daemon has been killed.
func mutateBatch(base string, batch []map[string]any) (lastSeq uint64, err error) {
	body, _ := json.Marshal(map[string]any{"mutations": batch})
	resp, err := http.Post(base+"/v1/graphs/tiny/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("mutate status %d: %s", resp.StatusCode, raw)
	}
	var doc struct {
		LastSeq uint64 `json:"last_seq"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("parse mutate response %q: %w", raw, err)
	}
	return doc.LastSeq, nil
}

// liveStats fetches the per-graph live block from /metrics.
func liveStats(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	liveBlock, ok := m["live"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing live block: %v", m["live"])
	}
	st, ok := liveBlock["tiny"].(map[string]any)
	if !ok {
		t.Fatalf("live block missing graph tiny: %v", liveBlock)
	}
	return st
}

// TestCrashRecovery SIGKILLs a csced mid-mutation-storm and verifies a
// restart from the same -wal-dir reopens the graph at the exact committed
// seq and epoch with every acknowledged batch present: the deterministic
// storm (each batch = one new A vertex plus one edge to vertex 0) lets the
// test compute vertex, edge, and match counts from the recovered seq
// alone. `make race` runs it with a race-instrumented daemon.
func TestCrashRecovery(t *testing.T) {
	graphPath := writeTempGraph(t)
	walDir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-graph", "tiny=" + graphPath,
		"-wal-dir", walDir,
		"-fsync", "always",
		"-segment-size", "8192", // force rotation + checkpoints during the storm
		"-wal-keep-segments", "2",
		"-log-level", "off",
	}
	d1 := spawnDaemon(t, args...)

	// Storm until killed. Batch k adds vertex 4+k (label A) and the edge
	// (4+k, 0); acks record the last durable seq the client observed.
	ackCh := make(chan uint64, 1024)
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		for k := 0; ; k++ {
			lastSeq, err := mutateBatch(d1.base(), []map[string]any{
				{"op": "add_vertex", "label": "A"},
				{"op": "insert_edge", "src": 4 + k, "dst": 0, "label": ""},
			})
			if err != nil {
				return // the kill landed
			}
			ackCh <- lastSeq
		}
	}()

	// Let a healthy number of batches commit, then kill without warning.
	var ackSeq uint64
	for len(ackCh) < cap(ackCh) {
		select {
		case s := <-ackCh:
			ackSeq = s
		case <-time.After(20 * time.Second):
			t.Fatal("mutation storm stalled")
		}
		if ackSeq >= 80 { // >= 40 acknowledged batches
			break
		}
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d1.cmd.Wait() // exits with "signal: killed"
	<-stormDone
	for {
		select {
		case s := <-ackCh:
			ackSeq = s
			continue
		default:
		}
		break
	}
	if ackSeq == 0 {
		t.Fatal("no batch was acknowledged before the kill")
	}

	// Restart from the same WAL directory.
	d2 := spawnDaemon(t, args...)
	defer func() {
		_ = d2.cmd.Process.Kill()
		_ = d2.cmd.Wait()
	}()
	if !strings.Contains(d2.out.String(), "csced: wal tiny: recovered seq=") {
		t.Fatalf("restart log lacks recovery line:\n%s", d2.out.String())
	}

	st := liveStats(t, d2.base())
	recSeq := uint64(st["last_seq"].(float64))
	recEpoch := uint64(st["epoch"].(float64))
	if recSeq < ackSeq {
		t.Fatalf("recovered seq %d lost acknowledged seq %d", recSeq, ackSeq)
	}
	if recSeq%2 != 0 {
		t.Fatalf("recovered seq %d is mid-batch (batches are 2 mutations)", recSeq)
	}
	batches := recSeq / 2
	if recEpoch != batches {
		t.Fatalf("recovered epoch %d, want %d (one epoch per committed batch)", recEpoch, batches)
	}

	// Exact counts: 4 seed vertices + one per batch; same for edges.
	resp, err := http.Get(d2.base() + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var graphsDoc struct {
		Graphs []struct {
			Name     string `json:"name"`
			Vertices uint64 `json:"vertices"`
			Edges    uint64 `json:"edges"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&graphsDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(graphsDoc.Graphs) != 1 || graphsDoc.Graphs[0].Name != "tiny" {
		t.Fatalf("unexpected graph listing: %+v", graphsDoc.Graphs)
	}
	if v := graphsDoc.Graphs[0].Vertices; v != 4+batches {
		t.Fatalf("recovered %d vertices, want %d", v, 4+batches)
	}
	if e := graphsDoc.Graphs[0].Edges; e != 4+batches {
		t.Fatalf("recovered %d edges, want %d", e, 4+batches)
	}

	// Exact match count: the seed holds 3 A–A edges (6 ordered
	// embeddings); every batch added one more A–A edge (2 embeddings).
	pattern := "t undirected\nv 0 A\nv 1 A\ne 0 1\n"
	mresp, err := http.Post(d2.base()+"/v1/graphs/tiny/match", "text/plain", strings.NewReader(pattern))
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d: %s", mresp.StatusCode, mbody)
	}
	want := 6 + 2*batches
	if got := uint64(strings.Count(string(mbody), "\n")) - 1; got != want {
		t.Fatalf("recovered graph matched %d embeddings, want %d", got, want)
	}

	// The rebuilt prefilter signature is exact for the recovered store.
	// No B–B edge ever existed, so the nbr-label filter rejects it; and
	// the storm grew vertex 0's degree to exactly batches+2, so a star
	// one past that boundary rejects while the boundary itself admits
	// and matches — off-by-one in the recovered histogram would flip one
	// of the two.
	postMatch := func(pattern string, limit int) (status int, body string) {
		t.Helper()
		r, err := http.Post(fmt.Sprintf("%s/v1/graphs/tiny/match?limit=%d", d2.base(), limit),
			"text/plain", strings.NewReader(pattern))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r.StatusCode, string(raw)
	}
	star := func(leaves uint64) string {
		var sb strings.Builder
		sb.WriteString("t undirected\nv 0 A\n")
		for i := uint64(1); i <= leaves; i++ {
			fmt.Fprintf(&sb, "v %d A\n", i)
		}
		for i := uint64(1); i <= leaves; i++ {
			fmt.Fprintf(&sb, "e 0 %d\n", i)
		}
		return sb.String()
	}
	if status, body := postMatch("t undirected\nv 0 B\nv 1 B\ne 0 1\n", 10); status != http.StatusOK ||
		!strings.Contains(body, `"rejected_by":"nbr-label"`) {
		t.Fatalf("B-B pattern after recovery: status %d, body %s (want nbr-label reject)", status, body)
	}
	if status, body := postMatch(star(batches+3), 10); status != http.StatusOK ||
		!strings.Contains(body, `"rejected_by":"degree"`) {
		t.Fatalf("degree-%d star after recovery: status %d, body %s (want degree reject)", batches+3, status, body)
	}
	if status, body := postMatch(star(batches+2), 1); status != http.StatusOK ||
		strings.Contains(body, `"rejected_by"`) || !strings.Contains(body, `"embeddings":1`) {
		t.Fatalf("degree-%d star after recovery: status %d, body %s (want admitted with 1 embedding)", batches+2, status, body)
	}

	// The log keeps extending gapless: the next batch must be assigned
	// seq recSeq+1 on the recovered daemon.
	lastSeq, err := mutateBatch(d2.base(), []map[string]any{
		{"op": "add_vertex", "label": "A"},
		{"op": "insert_edge", "src": 4 + int(batches), "dst": 0, "label": ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != recSeq+2 {
		t.Fatalf("post-recovery batch ended at seq %d, want %d", lastSeq, recSeq+2)
	}
}

// subEvent is one parsed NDJSON subscription line.
type subEvent struct {
	Kind     string `json:"kind"`
	Seq      uint64 `json:"seq"`
	CaughtUp bool   `json:"caught_up"`
}

// TestCrashResumeSubscription SIGKILLs csced while a subscriber is
// streaming and proves the restart is transparent to it: the resume
// window rebuilt from the log lets the subscriber resume from its last
// received commit on the restarted process, and the ledger it accumulates
// across BOTH processes satisfies count = before + Σdeltas − Σretractions
// against the recovered graph. The storm toggles one A–A edge so
// retractions are a first-class part of the equation.
func TestCrashResumeSubscription(t *testing.T) {
	graphPath := writeTempGraph(t)
	walDir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-graph", "tiny=" + graphPath,
		"-wal-dir", walDir,
		"-fsync", "always",
		"-segment-size", "8192",
		"-wal-keep-segments", "2",
		"-log-level", "off",
	}
	d1 := spawnDaemon(t, args...)

	// The seed holds 3 A–A edges = 6 ordered embeddings; the subscriber
	// joins before any mutation, so its baseline is exactly that.
	const before = uint64(6)
	pattern := "t undirected\nv 0 A\nv 1 A\ne 0 1\n"
	subResp, err := http.Get(d1.base() + "/v1/graphs/tiny/subscribe?pattern=" +
		url.QueryEscape(pattern) + "&from_seq=0")
	if err != nil {
		t.Fatal(err)
	}
	defer subResp.Body.Close()
	if subResp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", subResp.StatusCode)
	}

	// The subscriber ledger: only fully delivered batches count. sum is
	// the running Σdeltas − Σretractions; the pair (lastCommit,
	// sumAtCommit) freezes the ledger at the last commit marker that made
	// it through before the kill, discarding any torn batch suffix — the
	// resume below replays that batch in full.
	type ledger struct {
		lastCommit  uint64
		sumAtCommit int64
	}
	ledgerCh := make(chan ledger, 1)
	go func() {
		sc := bufio.NewScanner(subResp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<22)
		var led ledger
		var sum int64
		first := true
		for sc.Scan() {
			if first {
				first = false // hello line
				continue
			}
			var ev subEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				break // torn line at the kill
			}
			switch ev.Kind {
			case "delta":
				sum++
			case "retract":
				sum--
			case "commit":
				led.lastCommit = ev.Seq
				led.sumAtCommit = sum
			}
		}
		ledgerCh <- led
	}()

	// Storm: batch 1 mints vertex 4 (label A), then batch k toggles the
	// A–A edge (4,0) — inserts on even seqs, deletes on odd — so every
	// batch after the first streams two deltas or two retractions.
	ackCh := make(chan uint64, 1024)
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		if _, err := mutateBatch(d1.base(), []map[string]any{{"op": "add_vertex", "label": "A"}}); err != nil {
			return
		}
		for k := 2; ; k++ {
			op := "insert_edge"
			if k%2 == 1 {
				op = "delete_edge"
			}
			lastSeq, err := mutateBatch(d1.base(), []map[string]any{
				{"op": op, "src": 4, "dst": 0, "label": ""},
			})
			if err != nil {
				return // the kill landed
			}
			ackCh <- lastSeq
		}
	}()

	var ackSeq uint64
	for ackSeq < 40 {
		select {
		case s := <-ackCh:
			ackSeq = s
		case <-time.After(20 * time.Second):
			t.Fatal("mutation storm stalled")
		}
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d1.cmd.Wait()
	<-stormDone
	subResp.Body.Close() // unblock the subscriber goroutine's scanner
	var led ledger
	select {
	case led = <-ledgerCh:
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber did not observe the kill")
	}
	if led.lastCommit == 0 {
		t.Fatal("no commit marker reached the subscriber before the kill")
	}

	// Restart: the recovery line must report the restored resume window.
	d2 := spawnDaemon(t, args...)
	defer func() {
		_ = d2.cmd.Process.Kill()
		_ = d2.cmd.Wait()
	}()
	if out := d2.out.String(); !strings.Contains(out, "resume=true") {
		t.Fatalf("restart log lacks resume=true:\n%s", out)
	}
	st := liveStats(t, d2.base())
	recSeq := uint64(st["last_seq"].(float64))
	if recSeq < ackSeq {
		t.Fatalf("recovered seq %d lost acknowledged seq %d", recSeq, ackSeq)
	}
	if oldest := uint64(st["oldest_resumable_seq"].(float64)); oldest > led.lastCommit {
		t.Fatalf("restored window starts at %d, past the subscriber's commit %d", oldest, led.lastCommit)
	}

	// Resume on the restarted daemon from the subscriber's last commit and
	// drain the replay to caught_up, extending the same ledger.
	resumeResp, err := http.Get(d2.base() + "/v1/graphs/tiny/subscribe?pattern=" +
		url.QueryEscape(pattern) + fmt.Sprintf("&from_seq=%d", led.lastCommit))
	if err != nil {
		t.Fatal(err)
	}
	defer resumeResp.Body.Close()
	if resumeResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resumeResp.Body)
		t.Fatalf("resume subscribe status %d: %s", resumeResp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resumeResp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	sum := led.sumAtCommit
	prevCommit := led.lastCommit
	first := true
	for {
		if !sc.Scan() {
			t.Fatalf("resumed stream ended before caught_up: %v", sc.Err())
		}
		if first {
			first = false // hello line
			continue
		}
		var ev subEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad resumed line %q: %v", sc.Text(), err)
		}
		if ev.CaughtUp {
			break
		}
		switch ev.Kind {
		case "delta":
			sum++
		case "retract":
			sum--
		case "commit":
			if ev.Seq != prevCommit+1 {
				t.Fatalf("resumed commits not gapless: seq %d after %d", ev.Seq, prevCommit)
			}
			prevCommit = ev.Seq
		}
	}
	if prevCommit != recSeq {
		t.Fatalf("resumed replay ended at commit %d, want recovered seq %d", prevCommit, recSeq)
	}

	// The delta equation across the crash: the recovered graph's match
	// count equals the baseline plus the ledger both processes streamed.
	mresp, err := http.Post(d2.base()+"/v1/graphs/tiny/match", "text/plain", strings.NewReader(pattern))
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d: %s", mresp.StatusCode, mbody)
	}
	count := uint64(strings.Count(string(mbody), "\n")) - 1
	if int64(count) != int64(before)+sum {
		t.Fatalf("count %d != before %d + Σdeltas−Σretractions %d", count, before, sum)
	}
}
