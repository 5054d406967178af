// Command csced is the CSCE match-serving daemon: it loads one or more
// data graphs, clusters each into CCSR form once, and serves concurrent
// subgraph-matching queries over HTTP until shut down.
//
//	csced -graph yeast=yeast.graph -addr :8372
//	csced -dataset wordnet            # synthetic stand-in from the catalog
//
//	curl -X POST --data-binary @pattern.graph \
//	  'localhost:8372/v1/graphs/yeast/match?limit=100&timeout_ms=2000'
//	curl -X POST -d '{"mutations":[{"op":"insert_edge","src":0,"dst":7}]}' \
//	  localhost:8372/v1/graphs/yeast/mutate
//	curl 'localhost:8372/v1/graphs/yeast/subscribe?pattern=...'
//	curl localhost:8372/v1/graphs
//	curl localhost:8372/metrics
//
// Responses to /match stream one NDJSON line per embedding followed by a
// summary line. Every query runs under a deadline; disconnecting cancels
// the search. SIGINT/SIGTERM drain in-flight queries before exit.
//
// Graphs are live: /mutate applies an atomic batch of typed mutations and
// publishes a new immutable snapshot (in-flight queries finish on the one
// they pinned), and /subscribe streams the delta embeddings (and, for
// deletions, retractions) each commit contributes to a standing pattern.
// Mutations are admitted through their own valve (one applying batch,
// four waiting) so a mutation storm cannot starve reads.
//
// Durability: with -wal-dir set, every committed batch is appended to a
// per-graph segment log (fsynced per -fsync) before it is acknowledged,
// and a restart replays checkpoint + log to reopen each graph at its exact
// pre-crash seq and epoch. Disconnected subscribers resume gapless with
// /subscribe?from_seq=N; history already truncated answers 410 Gone.
//
// Sharding: -shards=K partitions every loaded graph into K label- or
// ID-range shards (pick with -shard-scheme), each with its own store, WAL
// directory, and mutation applier, behind a scatter-gather coordinator
// that decomposes patterns into rooted twigs and joins per-shard partial
// embeddings. Graphs can also be loaded at runtime, sharded or not, with
// POST /v1/graphs/{name}?shards=K.
//
// Observability: every query carries a trace ID (X-Trace-Id header, NDJSON
// summary, structured log lines on stderr); /metrics exposes latency
// quantiles per query phase and endpoint plus runtime gauges (goroutines,
// heap, GC pause, polled every 10s); /debug/slowlog holds the most recent
// queries slower than -slow-query with their plan summary and per-level
// execution profile, each linked to /debug/trace/{id} where the full span
// tree of the last 256 queries is retained; -debug-addr serves
// net/http/pprof on a separate (private) listener.
//
// Trace export: with -trace-endpoint set, every finished query trace is
// shipped asynchronously to a collector as OTLP/JSON (POST /v1/traces).
// The queue is bounded (4096 traces): a stalled collector costs dropped
// traces (counted in csce_trace_export_dropped), never query latency. On
// shutdown the queue is drained after the HTTP listener, so no tail spans
// are lost.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"csce"
	"csce/internal/dataset"
	"csce/internal/live"
	"csce/internal/obs/export"
	"csce/internal/server"
	"csce/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "csced: %v\n", err)
		os.Exit(1)
	}
}

// drainTimeout bounds the graceful shutdown: in-flight queries get this
// long to finish before the listener is closed and cancels them.
const drainTimeout = 10 * time.Second

// repeatFlag collects repeated -graph/-dataset values.
type repeatFlag []string

func (f *repeatFlag) String() string     { return strings.Join(*f, ",") }
func (f *repeatFlag) Set(v string) error { *f = append(*f, v); return nil }

// run starts the daemon and blocks until ctx is cancelled. When started is
// non-nil it receives the bound address once the listener is live (tests).
func run(ctx context.Context, args []string, stdout, stderr io.Writer, started chan<- string) error {
	fs := flag.NewFlagSet("csced", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphs   repeatFlag
		datasets repeatFlag
		addr     = fs.String("addr", "127.0.0.1:8372", "listen address (\":0\" picks a free port)")
		slots    = fs.Int("slots", 4, "concurrently executing matches; up to 2*slots more wait before 429")
		maxLimit = fs.Uint64("max-limit", 10000, "hard cap on embeddings streamed per query")
		defTO    = fs.Duration("default-timeout", 5*time.Second, "per-query timeout when timeout_ms is absent")
		maxTO    = fs.Duration("max-timeout", 60*time.Second, "cap on per-query timeout_ms")
		planLRU  = fs.Int("plan-cache", 256, "optimized-plan LRU size (negative disables)")
		slowTO   = fs.Duration("slow-query", 500*time.Millisecond, "capture queries at least this slow in /debug/slowlog (negative disables)")
		maxBatch = fs.Int("max-batch", 4096, "mutations accepted per /mutate batch")
		walKeep  = fs.Int("wal-retention", 4096, "mutation records retained per graph for subscriber resume")
		walDir   = fs.String("wal-dir", "", "root directory for durable per-graph WALs (empty keeps graphs in-memory only)")
		fsyncPol = fs.String("fsync", "always", "durable-WAL fsync policy: always or never")
		segSize  = fs.Int64("segment-size", 4<<20, "durable-WAL segment rotation threshold in bytes")
		segKeep  = fs.Int("wal-keep-segments", 4, "sealed segments kept before a checkpoint truncates the log")
		debugAdr = fs.String("debug-addr", "", "serve net/http/pprof on this address (empty disables; keep it private)")
		logLevel = fs.String("log-level", "info", "structured-log level on stderr (debug, info, warn, error, off)")
		shardsN  = fs.Int("shards", 0, "partition every loaded graph into K shards behind a scatter-gather coordinator (0 serves single-store)")
		shardSch = fs.String("shard-scheme", "id", "vertex->shard assignment for -shards: id (v mod K) or label")
		traceEP  = fs.String("trace-endpoint", "", "collector URL to POST finished traces to, e.g. http://localhost:4318/v1/traces (empty disables export)")
		preFlt   = fs.String("prefilter", "on", "O(pattern) admission pre-filters: on rejects provably-empty queries before planning, off disables the gate (signatures stay maintained)")
	)
	fs.Var(&graphs, "graph", "name=path of a data graph to serve (repeatable)")
	fs.Var(&datasets, "dataset", "synthetic dataset from the catalog to serve (repeatable); see cmd/cscegen")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(graphs) == 0 && len(datasets) == 0 {
		return fmt.Errorf("nothing to serve: pass at least one -graph name=path or -dataset name")
	}
	logger, err := newLogger(*logLevel, stderr)
	if err != nil {
		return err
	}
	fsync, err := live.ParseFsyncPolicy(*fsyncPol)
	if err != nil {
		return err
	}
	if *shardsN < 0 || *shardsN > 1024 {
		return fmt.Errorf("bad -shards %d (0..1024)", *shardsN)
	}
	scheme, err := shard.ParseScheme(*shardSch)
	if err != nil {
		return err
	}
	switch *preFlt {
	case "on", "off":
	default:
		return fmt.Errorf("bad -prefilter %q (on or off)", *preFlt)
	}
	var exporter *export.Exporter
	if *traceEP != "" {
		exporter, err = export.New(export.Config{
			Endpoint: *traceEP,
			Logger:   logger,
		})
		if err != nil {
			return err
		}
	}

	srv := server.New(server.Config{
		Addr:                 *addr,
		MatchSlots:           *slots,
		MaxLimit:             *maxLimit,
		DefaultTimeout:       *defTO,
		MaxTimeout:           *maxTO,
		PlanCacheSize:        *planLRU,
		SlowQueryThreshold:   *slowTO,
		MaxMutationsPerBatch: *maxBatch,
		WALRetention:         *walKeep,
		WALDir:               *walDir,
		WALFsync:             fsync,
		WALSegmentSize:       *segSize,
		WALKeepSegments:      *segKeep,
		Logger:               logger,
		TraceExporter:        exporter,
		DisablePrefilter:     *preFlt == "off",
	})

	for _, spec := range graphs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -graph %q: want name=path", spec)
		}
		if err := loadGraphFile(srv, name, path, *shardsN, scheme, stdout); err != nil {
			return err
		}
	}
	for _, name := range datasets {
		spec, ok := dataset.ByName(name)
		if !ok {
			return fmt.Errorf("unknown dataset %q (known: %s)", name, strings.Join(dataset.Names(), ", "))
		}
		start := time.Now()
		g := spec.Generate()
		if g.Names == nil {
			g.Names = server.NumericLabels(g)
		}
		engine := csce.NewEngine(g)
		if err := register(srv, name, engine, *shardsN, scheme); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "csced: dataset %s: %d vertices, %d edges, %d clusters%s (generated+clustered in %v)\n",
			name, g.NumVertices(), g.NumEdges(), engine.Store().NumClusters(),
			shardSuffix(*shardsN, scheme), time.Since(start).Round(time.Millisecond))
	}

	if *walDir != "" {
		for _, e := range srv.Registry().List() {
			if e.Live == nil {
				// Sharded graphs recover per shard; the coordinator already
				// reconciled any shard that lagged the others.
				fmt.Fprintf(stdout, "csced: wal %s: recovered %d shards at epochs %v\n",
					e.Name, e.Sharded.K(), e.Sharded.EpochVector())
				continue
			}
			rec := e.Live.Recovery()
			var upgraded string
			if rec.UpgradedLayout {
				upgraded = "; upgraded the directory: .inc chain files renamed to .wal, resume/ removed"
			}
			fmt.Fprintf(stdout, "csced: wal %s: recovered seq=%d epoch=%d (checkpoint=%v replayed=%d torn_tail=%v resume=%v resume_oldest=%d in %v%s)\n",
				e.Name, rec.RecoveredSeq, rec.RecoveredEpoch, rec.HasCheckpoint,
				rec.ReplayedRecords, rec.TornTail, rec.ResumeWindowRestored, rec.ResumeOldestSeq,
				rec.Duration.Round(time.Microsecond), upgraded)
		}
	}

	// The pprof listener is separate from the serving listener on purpose:
	// profiling endpoints leak internals and must never share the address
	// operators expose to clients.
	if *debugAdr != "" {
		debugSrv, dbound, err := startDebugServer(*debugAdr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer debugSrv.Close()
		fmt.Fprintf(stdout, "csced: pprof on http://%s/debug/pprof/\n", dbound)
	}

	bound, err := srv.Start()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "csced: serving %d graph(s) on http://%s\n", srv.Registry().Len(), bound)
	if started != nil {
		started <- bound
	}

	<-ctx.Done()
	fmt.Fprintf(stdout, "csced: draining (up to %v)...\n", drainTimeout)
	// ctx is already cancelled here; deriving the drain deadline from it
	// would make it pre-expired.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "csced: bye")
	return nil
}

// newLogger builds the daemon's structured logger at the requested level;
// "off" discards everything (the server's default).
func newLogger(level string, stderr io.Writer) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off":
		return slog.New(slog.NewTextHandler(io.Discard, nil)), nil
	default:
		return nil, fmt.Errorf("bad -log-level %q (debug, info, warn, error, off)", level)
	}
	return slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: lv})), nil
}

// startDebugServer serves net/http/pprof on its own mux and listener. The
// explicit mux (rather than http.DefaultServeMux) keeps the profiling
// routes off any handler the rest of the process might export.
func startDebugServer(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

func loadGraphFile(srv *server.Server, name, path string, shards int, scheme shard.Scheme, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	g, err := csce.ParseGraph(f)
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	engine := csce.NewEngine(g)
	if err := register(srv, name, engine, shards, scheme); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "csced: graph %s (%s): %d vertices, %d edges, %d clusters%s (loaded+clustered in %v)\n",
		name, path, g.NumVertices(), g.NumEdges(), engine.Store().NumClusters(),
		shardSuffix(shards, scheme), time.Since(start).Round(time.Millisecond))
	return nil
}

// register adds an engine to the registry, sharded behind a coordinator
// when -shards is set.
func register(srv *server.Server, name string, engine *csce.Engine, shards int, scheme shard.Scheme) error {
	var err error
	if shards > 0 {
		_, err = srv.Registry().AddSharded(name, engine, shards, scheme)
	} else {
		_, err = srv.Registry().Add(name, engine)
	}
	return err
}

func shardSuffix(shards int, scheme shard.Scheme) string {
	if shards <= 0 {
		return ""
	}
	return fmt.Sprintf(", %d shards (%s)", shards, scheme)
}
