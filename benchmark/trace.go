package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: what ran, when, under which span,
// and for which request. Times are offsets from the recorder's origin.
type span struct {
	name   string
	start  time.Duration
	end    time.Duration
	parent int // index of the enclosing span, -1 for a request root
	req    int
}

// recorder keeps spans in memory for one replay. The replay itself is
// single-threaded, but the shard layer reports its per-shard timings from
// its own scatter goroutines, so appends take a lock.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	open  []int // stack of spans opened by begin and not yet ended
	req   int
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), req: -1} }

// nextRequest starts a new request id; spans recorded until the next call
// share it.
func (r *recorder) nextRequest() { r.req++ }

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(name string) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, req: r.req})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].end = now
	return now - r.spans[id].start
}

// observed records a span the layer timed itself and reported through an
// Observer hook when it finished: it ends now and lasted d. It becomes a
// child of the innermost open span.
func (r *recorder) observed(name string, d time.Duration) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: now - d, end: now, parent: parent, req: r.req})
	return len(r.spans) - 1
}

// adopt re-parents the current request's spans named child that lie inside
// span id. Hooks fire innermost first (an fsync reports before the append
// that contains it), so the outer span claims its children when it arrives.
func (r *recorder) adopt(id int, child string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	outer := r.spans[id]
	for i := len(r.spans) - 1; i >= 0 && r.spans[i].req == outer.req; i-- {
		s := &r.spans[i]
		if i != id && s.name == child && s.parent == outer.parent && s.start >= outer.start && s.end <= outer.end {
			s.parent = id
		}
	}
}

// hook adapts recorder.observed to an Observer callback.
func (r *recorder) hook(name string) func(time.Duration) {
	return func(d time.Duration) { r.observed(name, d) }
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children may overlap one another
// (parallel shard scatters), so coverage is the length of their union,
// clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		cursor := s.start
		for _, k := range kids {
			ks, ke := spans[k].start, spans[k].end
			if ks < cursor {
				ks = cursor
			}
			if ke > s.end {
				ke = s.end
			}
			if ke > ks {
				covered += ke - ks
				cursor = ke
			}
		}
		out[i] = (s.end - s.start) - covered
	}
	return out
}

// layerStats aggregates one replay's spans by name.
type layerStats struct {
	self    map[string][]float64 // self times in microseconds, per span name
	total   map[string]float64   // summed self time in microseconds
	wall    float64              // first start to last end, microseconds
	inLayer float64              // wall time spent inside layer spans, microseconds
}

func (r *recorder) stats() layerStats {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	ls := layerStats{self: map[string][]float64{}, total: map[string]float64{}}
	if len(spans) == 0 {
		return ls
	}
	self := selfTimes(spans)
	first, last := spans[0].start, spans[0].end
	for i, s := range spans {
		v := us(self[i])
		ls.self[s.name] = append(ls.self[s.name], v)
		ls.total[s.name] += v
		if s.start < first {
			first = s.start
		}
		if s.end > last {
			last = s.end
		}
		// Top-level spans tile the replay's wall time without overlap (the
		// replay is single-threaded), so what lies inside a layer is their
		// length — less, for a request root, the root's own self time,
		// which is the harness. Summing self times instead would count the
		// K parallel shard.local spans K times.
		if s.parent < 0 {
			ls.inLayer += us(s.end - s.start)
			if s.name == rootSpan {
				ls.inLayer -= v
			}
		}
	}
	ls.wall = us(last - first)
	return ls
}

// p50 is the median self time of the named span in microseconds (0 when
// the replay never entered that layer).
func (ls layerStats) p50(name string) float64 { return medianOf(ls.self[name]) }

// coverage is the share of the replay's wall time spent inside layer
// spans, i.e. everything but the request roots' own self time (the
// harness) and the gaps between requests.
func (ls layerStats) coverage() float64 { return ratio(ls.inLayer, ls.wall) }

// rootSpan wraps one replayed request; its self time is harness time.
const rootSpan = "request"

// writeSpans dumps the spans as one compact JSON document:
// {"names":[...],"spans":[[name,req,parent,start_ns,end_ns],...]}.
func (r *recorder) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	ids := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := ids[s.name]; !ok {
			ids[s.name] = len(names)
			names = append(names, s.name)
		}
	}
	fmt.Fprint(w, `{"names":[`)
	for i, n := range names {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprint(w, `],"spans":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", ids[s.name], s.req, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
