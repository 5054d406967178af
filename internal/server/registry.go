package server

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"csce/internal/core"
	"csce/internal/graph"
	"csce/internal/live"
	"csce/internal/shard"
)

// Entry is one resident dataset. A single-store graph is wrapped for live
// mutation through Live: queries pin the current published snapshot
// (lock-free reads against an immutable CCSR store), mutations commit new
// epochs through the same handle. A graph registered sharded has Live nil
// and Sharded set: queries scatter-gather through the coordinator, which
// owns one live.Graph per shard.
type Entry struct {
	Name     string
	Live     *live.Graph        // single-store graphs; nil when sharded
	Sharded  *shard.Coordinator // sharded graphs; nil when single-store
	Names    *graph.LabelTable
	Directed bool
	LoadedAt time.Time

	queries atomic.Uint64 // matches served against this graph
}

// Queries returns how many match queries this graph has served.
func (e *Entry) Queries() uint64 { return e.queries.Load() }

// Counts reads the current snapshot's sizes. They move with mutations, so
// callers get point-in-time values, not registration-time ones. Sharded
// graphs report logical totals (boundary replicas de-duplicated) and no
// cluster count (clusters are per shard).
func (e *Entry) Counts() (vertices, edges, clusters int) {
	if e.Sharded != nil {
		v, ed := e.Sharded.Counts()
		return v, ed, 0
	}
	snap := e.Live.Acquire()
	defer snap.Release()
	st := snap.Store()
	return st.NumVertices(), st.NumEdges(), st.NumClusters()
}

// Registry maps dataset names to resident live graphs. Adding a graph is
// rare (startup, admin); lookups are per-query, so reads take an RLock.
type Registry struct {
	// LiveOpts tunes the live wrapper of subsequently added graphs
	// (subscriber buffers, WAL retention, durability knobs); the server
	// sets it from its config before loading datasets.
	LiveOpts live.Options
	// WALRoot, when non-empty, makes every added graph durable: graph
	// <name> logs to and recovers from WALRoot/<name> (sharded graphs use
	// one subdirectory per shard underneath it).
	WALRoot string
	// ShardObserver receives scatter/local/join durations from every
	// sharded graph's coordinator; the server wires it to its histograms.
	ShardObserver shard.Observer
	// DisablePrefilter turns off the admission gate inside subsequently
	// added sharded coordinators (per-shard signatures are still
	// maintained); the server sets it from Config.DisablePrefilter so a
	// direct Coordinator.Match agrees with the HTTP path.
	DisablePrefilter bool

	mu      sync.RWMutex
	entries map[string]*Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// Add registers an engine under a name and wraps it for live mutation.
// With WALRoot set, the graph's durable WAL under WALRoot/<name> is
// replayed first: the entry comes up at the last committed seq and epoch,
// not at the engine's base state. The label table is taken from the live
// writer (after a recovery it includes labels minted by replayed
// mutations); NumericLabels can synthesize one for purely numeric graphs.
// Add fails on duplicate names — replacing a resident graph wholesale is
// still an offline operation; incremental change goes through
// Entry.Live.Mutate.
func (r *Registry) Add(name string, engine *core.Engine) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("server: graph name must be non-empty")
	}
	opts := r.LiveOpts
	if r.WALRoot != "" {
		opts.Durability.Dir = filepath.Join(r.WALRoot, name)
	}
	st := engine.Store()
	lg, err := live.Open(name, engine, opts)
	if err != nil {
		return nil, fmt.Errorf("server: open graph %q: %w", name, err)
	}
	e := &Entry{
		Name:     name,
		Live:     lg,
		Names:    lg.Names(),
		Directed: st.Directed(),
		LoadedAt: time.Now(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		e.Live.Close()
		return nil, fmt.Errorf("server: graph %q already registered", name)
	}
	r.entries[name] = e
	return e, nil
}

// AddSharded registers an engine partitioned into k shards behind a
// scatter-gather coordinator. Each shard wraps its own live.Graph with its
// own WAL directory (WALRoot/<name>/shard-<i> when durable), so mutation
// batches on different shards commit through k independent writers.
func (r *Registry) AddSharded(name string, engine *core.Engine, k int, scheme shard.Scheme) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("server: graph name must be non-empty")
	}
	opts := shard.Options{
		K:                k,
		Scheme:           scheme,
		Live:             r.LiveOpts,
		Observer:         r.ShardObserver,
		DisablePrefilter: r.DisablePrefilter,
	}
	if r.WALRoot != "" {
		opts.WALDir = filepath.Join(r.WALRoot, name)
	}
	st := engine.Store()
	coord, err := shard.Open(name, st, opts)
	if err != nil {
		return nil, fmt.Errorf("server: open sharded graph %q: %w", name, err)
	}
	e := &Entry{
		Name:     name,
		Sharded:  coord,
		Names:    coord.Names(),
		Directed: st.Directed(),
		LoadedAt: time.Now(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		coord.Close()
		return nil, fmt.Errorf("server: graph %q already registered", name)
	}
	r.entries[name] = e
	return e, nil
}

// CloseAll closes every resident live graph (each shard of the sharded
// ones): mutations start failing with ErrClosed and all subscription
// streams end. Shutdown calls it so long-lived subscribe handlers drain
// before the HTTP server waits on them.
func (r *Registry) CloseAll() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if e.Sharded != nil {
			e.Sharded.Close()
			continue
		}
		e.Live.Close()
	}
}

// Get returns the entry for a name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// List returns all entries sorted by name.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// NumericLabels builds an identity label table for a graph whose labels
// are numeric (the synthetic dataset generators): vertex label name "7"
// interns to Label(7), edge label name "3" to EdgeLabel(3), so patterns
// posted in the text format can name labels by their numbers. Attach it to
// the graph before building the engine.
func NumericLabels(g *graph.Graph) *graph.LabelTable {
	t := graph.NewLabelTable()
	maxV := graph.Label(0)
	for _, l := range g.Labels() {
		if l > maxV {
			maxV = l
		}
	}
	for l := graph.Label(0); l <= maxV; l++ {
		t.Vertex(strconv.Itoa(int(l)))
	}
	maxE := graph.EdgeLabel(0)
	g.Edges(func(_, _ graph.VertexID, el graph.EdgeLabel) {
		if el > maxE {
			maxE = el
		}
	})
	// Edge label 0 is pre-interned as the empty name (unlabeled edges).
	for el := graph.EdgeLabel(1); el <= maxE; el++ {
		t.Edge(strconv.Itoa(int(el)))
	}
	return t
}
