package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csce/internal/core"
	"csce/internal/server"
	"csce/internal/shard"
)

// rssCapKB is the watchdog's resident-set cap on csced: a scatter-gather
// query that materializes without bound must cost the run its correctness,
// not the machine its memory.
const rssCapKB = 4 << 20 // 4 GiB

// deployment is what a workload asks csced to serve; every flag it does
// not name stays at its default.
type deployment struct {
	dataset     string
	shards      int    // -shards
	walDir      string // -wal-dir
	segmentSize int64  // -segment-size
}

func (dp deployment) flags() []string {
	f := []string{"-dataset", dp.dataset}
	if dp.shards > 0 {
		f = append(f, "-shards", strconv.Itoa(dp.shards))
	}
	if dp.walDir != "" {
		f = append(f, "-wal-dir", dp.walDir)
	}
	if dp.segmentSize > 0 {
		f = append(f, "-segment-size", strconv.FormatInt(dp.segmentSize, 10))
	}
	return f
}

// daemon is one running csced: a real subprocess, or — in -smoke mode, the
// harness's self-check — an in-process server.Server.
type daemon struct {
	cmd   *exec.Cmd
	base  string        // http://host:port of the serving listener
	debug string        // http://host:port of the pprof listener
	done  chan struct{} // closed once the process has been waited for

	inproc *server.Server // -smoke only; cmd is nil then

	rssExceeded atomic.Bool
}

// launch starts the deployment: csced as a subprocess, or in process when
// e.smoke is set.
func launch(e *env, logPath string, dp deployment) (*daemon, time.Duration, error) {
	if e.smoke {
		return startInProcess(logPath, dp)
	}
	return startDaemon(e.ctx, e.bin, logPath, dp.flags()...)
}

// startInProcess serves the deployment from a server.Server inside the
// harness, logging to the same file a subprocess's stderr would go to.
func startInProcess(logPath string, dp deployment) (*daemon, time.Duration, error) {
	start := time.Now()
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	srv := server.New(server.Config{
		Addr:           "127.0.0.1:0",
		WALDir:         dp.walDir,
		WALSegmentSize: dp.segmentSize,
		Logger:         slog.New(slog.NewTextHandler(logFile, nil)),
	})
	g, err := loadDataset(dp.dataset)
	if err != nil {
		return nil, 0, err
	}
	if dp.shards > 0 {
		_, err = srv.Registry().AddSharded(dp.dataset, core.NewEngine(g), dp.shards, shard.SchemeID)
	} else {
		_, err = srv.Registry().Add(dp.dataset, core.NewEngine(g))
	}
	if err != nil {
		return nil, 0, err
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://" + addr, inproc: srv, done: make(chan struct{})}
	go func() { // closes the log once kill has shut the server down
		<-d.done
		logFile.Close()
	}()
	return d, time.Since(start), nil
}

var (
	servingRe = regexp.MustCompile(`serving \d+ graph\(s\) on (http://\S+)`)
	pprofRe   = regexp.MustCompile(`pprof on (http://[^/\s]+)`)
)

// buildCsced compiles cmd/csced from the checkout the benchmark sits in.
// The build cache makes a second call a sub-second staleness check, so
// every run builds: the binary can never be older than the source.
func buildCsced(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "csced")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/csced")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/csced: %v\n%s", err, out)
	}
	return bin, nil
}

// startDaemon launches csced with the given workload flags (plus a free
// serving port, a free pprof port, and stderr to a file) and returns once
// /healthz answers 200. The returned duration runs from process launch to
// that first 200: clustering, WAL open or replay, and listener start.
func startDaemon(ctx context.Context, bin, logPath string, flags ...string) (*daemon, time.Duration, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	stderr, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer stderr.Close() // the child holds its own descriptor
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start csced: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	ready := make(chan struct{})
	// One goroutine owns stdout until EOF, then reaps the process; it ends
	// when the process does, and kill/stop wait on done.
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if announced {
				continue // keep draining so the daemon never blocks on stdout
			}
			if m := pprofRe.FindStringSubmatch(line); m != nil {
				d.debug = m[1]
			}
			if m := servingRe.FindStringSubmatch(line); m != nil {
				d.base = m[1]
				announced = true
				close(ready)
			}
		}
		_ = cmd.Wait()
		if !announced {
			close(ready)
		}
	}()
	select {
	case <-ready:
	case <-ctx.Done():
		d.kill()
		return nil, 0, fmt.Errorf("csced did not announce its listener: %w", ctx.Err())
	}
	if d.base == "" {
		<-d.done
		tail, _ := os.ReadFile(logPath)
		return nil, 0, fmt.Errorf("csced exited before serving (flags %v): %s", flags, lastLines(string(tail), 5))
	}
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	setup := time.Since(start)
	go d.watchRSS()
	running.add(d)
	return d, setup, nil
}

// running tracks live subprocesses so an interrupted harness takes them
// down with it instead of leaving a csced behind.
var running = &daemonSet{set: map[*daemon]struct{}{}}

type daemonSet struct {
	mu  sync.Mutex
	set map[*daemon]struct{}
}

func (s *daemonSet) add(d *daemon) {
	s.mu.Lock()
	s.set[d] = struct{}{}
	s.mu.Unlock()
}

func (s *daemonSet) remove(d *daemon) {
	s.mu.Lock()
	delete(s.set, d)
	s.mu.Unlock()
}

// killAll SIGKILLs every live subprocess and waits for each.
func (s *daemonSet) killAll() {
	s.mu.Lock()
	all := make([]*daemon, 0, len(s.set))
	for d := range s.set {
		all = append(all, d)
	}
	s.mu.Unlock()
	for _, d := range all {
		d.kill()
	}
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// watchRSS polls the process's resident set and kills it past the cap.
// It ends with the process.
func (d *daemon) watchRSS() {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-tick.C:
			if kb, ok := d.procKB("VmRSS"); ok && kb > rssCapKB {
				d.rssExceeded.Store(true)
				_ = d.cmd.Process.Kill()
				return
			}
		}
	}
}

// procKB reads one kB field of the daemon's /proc/<pid>/status.
func (d *daemon) procKB(field string) (int64, bool) {
	if d.inproc != nil {
		return statusKB("/proc/self/status", field)
	}
	return statusKB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), field)
}

// statusKB reads one kB field (VmRSS, VmHWM) of a /proc status file.
func statusKB(path, field string) (int64, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb, err == nil
			}
		}
	}
	return 0, false
}

// kill is the crash: SIGKILL, then wait until the process is gone. The
// in-process stand-in can only shut down; calling kill twice is harmless.
func (d *daemon) kill() {
	if d.inproc != nil {
		select {
		case <-d.done:
		default:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = d.inproc.Shutdown(ctx)
			cancel()
			close(d.done)
		}
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	running.remove(d)
}

var heapAllocRe = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)`)

// heapLiveMB forces a collection in the daemon and returns the heap that
// survived it.
func (d *daemon) heapLiveMB() (float64, error) {
	if d.inproc != nil {
		return selfHeapLiveMB(), nil
	}
	resp, err := http.Get(d.debug + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := heapAllocRe.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("heap profile has no HeapAlloc line")
	}
	n, err := strconv.ParseFloat(string(m[1]), 64)
	return n / (1 << 20), err
}

// coldStarts launches and kills csced n-1 times and keeps the n-th
// running; it returns that daemon and every launch-to-healthy time.
// deploy gives start i its own state directory, so every start is cold.
func coldStarts(e *env, logPath string, n int, deploy func(i int) deployment) (*daemon, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		d, setup, err := launch(e, logPath, deploy(i))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, setup.Seconds())
		if i == n-1 {
			return d, times, nil
		}
		d.kill()
	}
	return nil, nil, fmt.Errorf("coldStarts: n must be positive")
}

// guardSelfRSS is the watchdog for code that runs the system under test
// inside the harness process (the sharded replay): past the same cap it
// ends the run with a non-zero exit instead of letting the machine swap.
// The returned function stops the guard and waits for it.
func guardSelfRSS() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if kb, ok := statusKB("/proc/self/status", "VmRSS"); ok && kb > rssCapKB {
					fmt.Fprintf(os.Stderr, "benchmark: in-process replay exceeded the %d MiB resident-set cap\n", rssCapKB>>10)
					os.Exit(1)
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// selfHeapLiveMB forces a collection in this process and returns the heap
// that survived it.
func selfHeapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
