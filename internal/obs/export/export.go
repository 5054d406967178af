// Package export ships finished query traces to a standards-based
// collector over HTTP as OTLP/JSON (the OpenTelemetry protobuf-JSON
// mapping, POST /v1/traces), encoded with the standard library only.
//
// The exporter is deliberately asymmetric about who waits: the query path
// never does. Enqueue is a single non-blocking channel send — when the
// bounded queue is full the trace is dropped and counted, never the query
// delayed. A single background loop batches traces (flushing at BatchSize
// or after Linger), POSTs them, and retries transient failures (connection
// errors, 5xx, 429) with exponential backoff and jitter; permanent
// failures (other 4xx) drop the batch immediately. Every outcome is
// self-telemetered: queued/sent/dropped/retries counters plus a POST
// latency histogram, surfaced by the daemon under csce_trace_export_* so
// the export pipeline is as observable as the queries it describes.
//
// Shutdown drains: the daemon stops the HTTP listener first (in-flight
// handlers finish and enqueue their traces), then calls Shutdown, which
// flushes everything queued before returning — no tail spans are lost on
// SIGTERM. A deadline context bounds the drain; on expiry the in-flight
// POST and any backoff sleep are aborted.
package export

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"csce/internal/obs"
)

// Config parameterizes an Exporter. Zero fields take the defaults noted
// on each; only Endpoint is mandatory.
type Config struct {
	// Endpoint is the collector URL to POST batches to, e.g.
	// http://localhost:4318/v1/traces.
	Endpoint string
	// Service is the service.name resource attribute (default "csced").
	Service string
	// QueueSize bounds the trace queue; a full queue drops (default 4096).
	QueueSize int
	// BatchSize flushes a batch when it reaches this many traces
	// (default 64).
	BatchSize int
	// Linger flushes a non-empty batch this long after its first trace
	// even if under BatchSize (default 200ms).
	Linger time.Duration
	// RequestTimeout bounds each POST attempt (default 5s).
	RequestTimeout time.Duration
	// MaxAttempts caps POST attempts per batch, first try included
	// (default 4).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts (defaults 100ms and 2s); actual sleeps are jittered in
	// [base/2, base).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Client overrides the HTTP client (default http.DefaultClient);
	// tests inject one, and RequestTimeout still applies per attempt.
	Client *http.Client
	// Logger receives drop/give-up warnings (default slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Service == "" {
		c.Service = "csced"
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.Linger <= 0 {
		c.Linger = 200 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Stats is a point-in-time read of the exporter's self-telemetry
// counters. queued counts accepted traces; sent and dropped count traces
// (not batches) so queued == sent + dropped + in-flight at all times.
type Stats struct {
	Queued  uint64 `json:"queued"`
	Sent    uint64 `json:"sent"`
	Dropped uint64 `json:"dropped"`
	Retries uint64 `json:"retries"`
}

// Exporter is the asynchronous span pipeline: a bounded queue, one
// batching/sending goroutine, and self-telemetry. It implements
// obs.SpanSink, so it plugs directly into Trace.Finish.
type Exporter struct {
	cfg Config

	queue chan obs.FinishedTrace
	stop  chan struct{} // closed by Shutdown; the loop drains then exits
	done  chan struct{} // closed by the loop on exit

	stopOnce sync.Once

	// reqCtx parents every POST and backoff wait; reqCancel aborts them
	// when a Shutdown deadline expires.
	reqCtx    context.Context
	reqCancel context.CancelFunc

	queued  atomic.Uint64
	sent    atomic.Uint64
	dropped atomic.Uint64
	retries atomic.Uint64
	latency obs.Histogram
}

// New starts an exporter (its sender goroutine runs until Shutdown).
func New(cfg Config) (*Exporter, error) {
	cfg = cfg.withDefaults()
	if cfg.Endpoint == "" {
		return nil, fmt.Errorf("export: endpoint required")
	}
	reqCtx, reqCancel := context.WithCancel(context.Background())
	e := &Exporter{
		cfg:       cfg,
		queue:     make(chan obs.FinishedTrace, cfg.QueueSize),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		reqCtx:    reqCtx,
		reqCancel: reqCancel,
	}
	go e.loop()
	return e, nil
}

// Enqueue offers a finished trace to the export queue without blocking:
// if the queue is full the trace is dropped and counted. This is the only
// exporter code on the query path: Trace.Finish calls it on every served
// request, and it costs one channel send or a counter bump, never a wait.
//
//csce:hotpath
func (e *Exporter) Enqueue(ft obs.FinishedTrace) bool {
	select {
	case e.queue <- ft:
		e.queued.Add(1)
		return true
	default:
		e.dropped.Add(1)
		return false
	}
}

// TraceFinished implements obs.SpanSink.
func (e *Exporter) TraceFinished(ft obs.FinishedTrace) bool { return e.Enqueue(ft) }

// Stats snapshots the self-telemetry counters.
func (e *Exporter) Stats() Stats {
	return Stats{
		Queued:  e.queued.Load(),
		Sent:    e.sent.Load(),
		Dropped: e.dropped.Load(),
		Retries: e.retries.Load(),
	}
}

// Latency snapshots the POST latency histogram.
func (e *Exporter) Latency() obs.HistogramSnapshot { return e.latency.Snapshot() }

// Endpoint returns the configured collector URL.
func (e *Exporter) Endpoint() string { return e.cfg.Endpoint }

// QueueCap returns the configured queue bound.
func (e *Exporter) QueueCap() int { return cap(e.queue) }

// Shutdown flushes everything queued and stops the sender. It must be
// called after the HTTP listener has drained, so every in-flight handler
// has already enqueued its trace. If ctx expires first, the in-flight
// POST and any backoff sleep are aborted and ctx.Err() is returned;
// either way the sender goroutine has exited when Shutdown returns.
func (e *Exporter) Shutdown(ctx context.Context) error {
	e.stopOnce.Do(func() { close(e.stop) })
	select {
	case <-e.done:
		e.reqCancel()
		return nil
	case <-ctx.Done():
		e.reqCancel() // abort the in-flight attempt; the loop exits promptly
		<-e.done
		return ctx.Err()
	}
}

// loop is the single sender goroutine: it accumulates traces into a
// batch, flushing at BatchSize or Linger, and on stop drains the queue
// before exiting.
func (e *Exporter) loop() {
	defer close(e.done)
	// rng jitters backoff sleeps; owned by this goroutine, so the
	// non-concurrency-safe rand.Rand is fine. Seeded from the global
	// source (Go 1.20+ auto-seeds it).
	rng := rand.New(rand.NewSource(rand.Int63()))
	batch := make([]obs.FinishedTrace, 0, e.cfg.BatchSize)
	linger := time.NewTimer(e.cfg.Linger)
	if !linger.Stop() {
		<-linger.C
	}
	lingerArmed := false
	flush := func() {
		if lingerArmed {
			if !linger.Stop() {
				<-linger.C
			}
			lingerArmed = false
		}
		if len(batch) == 0 {
			return
		}
		e.send(batch, rng)
		batch = batch[:0]
	}
	for {
		select {
		case <-e.stop:
			// Drain whatever made it into the queue before the listener
			// finished, then flush the final batches.
			for {
				select {
				case ft := <-e.queue:
					batch = append(batch, ft)
					if len(batch) >= e.cfg.BatchSize {
						flush()
					}
				default:
					flush()
					return
				}
			}
		case ft := <-e.queue:
			batch = append(batch, ft)
			if len(batch) >= e.cfg.BatchSize {
				flush()
			} else if !lingerArmed {
				linger.Reset(e.cfg.Linger)
				lingerArmed = true
			}
		case <-linger.C:
			lingerArmed = false
			if len(batch) > 0 {
				e.send(batch, rng)
				batch = batch[:0]
			}
		}
	}
}

// send encodes a batch once and POSTs it with bounded retries. Transient
// failures (transport errors, 5xx, 429) back off exponentially with
// jitter; anything else, or attempt exhaustion, drops the batch with a
// warning.
func (e *Exporter) send(batch []obs.FinishedTrace, rng *rand.Rand) {
	body, err := encodeOTLP(batch, e.cfg.Service)
	if err != nil {
		// Encoding is infallible for the types we marshal; belt and
		// braces only.
		e.dropped.Add(uint64(len(batch)))
		e.cfg.Logger.Warn("trace export encode failed", "err", err)
		return
	}
	backoff := e.cfg.BackoffBase
	for attempt := 1; ; attempt++ {
		status, err := e.post(body)
		if err == nil && status >= 200 && status < 300 {
			e.sent.Add(uint64(len(batch)))
			return
		}
		retryable := err != nil || status >= 500 || status == http.StatusTooManyRequests
		if !retryable || attempt >= e.cfg.MaxAttempts {
			e.dropped.Add(uint64(len(batch)))
			e.cfg.Logger.Warn("trace export batch dropped",
				"traces", len(batch), "attempts", attempt, "status", status, "err", err)
			return
		}
		e.retries.Add(1)
		// Jittered exponential backoff: uniform in [backoff/2, backoff),
		// doubling up to BackoffMax. Abortable by Shutdown's deadline.
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-e.reqCtx.Done():
			t.Stop()
			e.dropped.Add(uint64(len(batch)))
			return
		}
		if backoff *= 2; backoff > e.cfg.BackoffMax {
			backoff = e.cfg.BackoffMax
		}
	}
}

// post performs one POST attempt, recording its latency.
func (e *Exporter) post(body []byte) (int, error) {
	ctx, cancel := context.WithTimeout(e.reqCtx, e.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.cfg.Endpoint, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := e.cfg.Client.Do(req)
	e.latency.Record(time.Since(start))
	if err != nil {
		return 0, err
	}
	// Drain so the transport can reuse the connection.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	_ = resp.Body.Close()
	return resp.StatusCode, nil
}
