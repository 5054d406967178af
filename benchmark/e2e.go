package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// coldStartCount is how many times a run launches csced from nothing;
// setup_s is the median. Launches cost 0.07-0.4 s, so seven stay cheap.
const coldStartCount = 7

// coldStarts is coldStartCount, or one in the smoke self-check.
func (e *env) coldStarts() int {
	if e.smoke {
		return 1
	}
	return coldStartCount
}

// env is what one invocation hands every workload.
type env struct {
	ctx     context.Context // carries the per-invocation wall cap
	root    string          // checkout root (holds cmd/csced)
	bin     string          // built csced; empty in smoke mode
	tmp     string          // scratch directory inside the checkout
	outDir  string          // benchmark/out: span files
	seed    int64
	seconds float64
	pin     bool // record inputs.lock / kernel-tasks.json instead of checking
	lock    lockFile
	smoke   bool // in-process server, no daemon lifecycle metrics
}

func (e *env) measure() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// warmup is the discarded lead-in: a tenth of the measured time.
func (e *env) warmup() time.Duration { return e.measure() / 10 }

// result is one run's outcome before it is rendered as the result line.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
	// problems are correctness violations found by the oracle; any entry
	// makes the run incorrect.
	problems []string
	// report is human-readable detail printed above the result line.
	report []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) problemf(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.failed++
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// maxBrokenRequests is how many consecutive requests may fail without an
// HTTP status before a client gives the daemon up for dead.
const maxBrokenRequests = 10

// sample is one completed request of a closed loop.
type sample struct {
	pat   int
	lat   time.Duration
	done  time.Duration // completion time since the loop's common start
	reply matchReply
}

// closedLoop drives `clients` closed-loop clients against base until the
// deadline, each on its own connection and request stream, and returns
// every sample plus the wall time from the common start to the last
// completion. minEach keeps a client going past the deadline until it has
// sent that many requests (warm-up: at least one pass over the pool, so
// every plan is cached).
func closedLoop(ctx context.Context, cs []*client, streams []*requestStream, graphName string, pool []pattern,
	dur time.Duration, minEach int) ([]sample, time.Duration) {
	paths := make([]string, len(pool))
	for i, p := range pool {
		paths[i] = matchPath(graphName, p)
	}
	per := make([][]sample, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for ci := range cs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			broken := 0
			for n := 0; ctx.Err() == nil && (n < minEach || time.Now().Before(deadline)); n++ {
				i := streams[ci].next()
				reply, lat := cs[ci].match(paths[i], pool[i].text)
				per[ci] = append(per[ci], sample{pat: i, lat: lat, done: time.Since(start), reply: reply})
				// A dead daemon refuses connections in microseconds; stop
				// instead of spinning on it until the deadline.
				if reply.status == 0 {
					if broken++; broken >= maxBrokenRequests {
						return
					}
				} else {
					broken = 0
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// doneTimes extracts every sample's completion time, for blockRate.
func doneTimes(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.done
	}
	return out
}

// latenciesMs extracts sorted latencies in milliseconds.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	sort.Float64s(out)
	return out
}

// judge applies the oracle to every sample after the clock has stopped:
// expected count, line count, and the first embedding edge by edge.
func judge(res *result, samples []sample, pool []pattern, o edgeOracle) {
	for _, s := range samples {
		res.attempted++
		p := pool[s.pat]
		if err := checkReply(s.reply, p.expect); err != nil {
			res.problemf("%s %s: %v", p.class, variantParam(p.variant), err)
			continue
		}
		if s.reply.lines > 0 {
			if err := verifyEmbedding(p, s.reply.first, o); err != nil {
				res.problemf("%s %s: %v", p.class, variantParam(p.variant), err)
			}
		}
	}
}

// scratchDir makes a fresh directory under the run's scratch root.
func scratchDir(e *env, name string) (string, error) {
	dir := filepath.Join(e.tmp, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
