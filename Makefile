GO ?= go

.PHONY: build test race live-race crash-race shard-race prefilter-race vet lint alloc-gate docscheck bench-selftest fuzz-smoke ci bench-obs bench-serve bench-prefilter

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite re-runs under the race detector; part of the tier-1
# check. (Formerly only server/exec/csced — bench and the baselines run
# enough goroutines to deserve the net too.)
race:
	$(GO) test -race ./...

# Focused race pass over the live-ingest subsystem: the snapshot-swap and
# subscription paths are the most concurrency-dense code in the tree, so
# they get a dedicated run (with -count=2 for schedule diversity) on top
# of the whole-suite `race` target. The ccsr line is the copy-on-write
# contract underneath the swap: snapshots share clusters and indexes with
# the writer, and these tests read and clone the shared side while the
# other is written — TestSharedSnapshotReadsWriteNothing matches queries
# straight off a published snapshot's own clusters while a writer churns
# clones of it.
live-race:
	$(GO) test -race -count=2 ./internal/live
	$(GO) test -race -count=2 -run 'TestClone|TestNewClusterLeavesSnapshotPairIndexAlone|TestPropertyClonesStayIndependent|TestSharedSnapshotReadsWriteNothing' ./internal/ccsr
	$(GO) test -race -count=2 -run 'TestE2EConcurrentReadersAcrossSwaps|TestSubscribeDeltaEquation|TestMutateEndpoint' ./internal/server

# Focused race pass over the scatter-gather subsystem: the coordinator
# runs goroutine-per-shard scatters, K concurrent shard writers, and an
# append-only ownership map — the exactness gate (sharded counts ==
# single-store counts, including under concurrent mutations) re-runs here
# under the race detector with -count=2 for schedule diversity.
shard-race:
	$(GO) test -race -count=2 ./internal/shard
	$(GO) test -race -run 'TestSharded' ./internal/server

# Never-wrong property gate for the admission pre-filters, under the race
# detector: the prefilter unit suite (incremental == rebuild, soundness
# against the executor), the live-ingest signature maintenance tests, and
# the shard-layer TestPrefilterNeverWrong corpus×K×mutation matrix plus
# the concurrent check/mutate race test. A Reject must always coincide
# with an executor count of zero.
prefilter-race:
	$(GO) test -race ./internal/prefilter
	$(GO) test -race -run 'TestPrefilter' ./internal/live ./internal/shard ./internal/server

# Crash-recovery drills: the tests re-exec the (race-instrumented) test
# binary as a real csced and SIGKILL it mid-mutation-storm. TestCrashRecovery
# verifies the restart recovers the exact seq/epoch and vertex/edge/match
# counts; TestCrashResumeSubscription kills the daemon under a live
# subscriber and proves the resume window rebuilt from the log makes the
# restart transparent: the resumed stream satisfies count = before +
# Σdeltas − Σretractions across the crash. See cmd/csced/crash_test.go.
crash-race:
	$(GO) test -race -run 'TestCrash' ./cmd/csced

vet:
	$(GO) vet ./...

# Project-specific static analysis: stdlib-only imports, atomic access
# consistency, mutex discipline, context propagation, enum-exhaustive
# switches, unchecked errors, snapshot refcount balance, lock ordering,
# goroutine exit paths. See internal/lint and DESIGN.md.
lint:
	$(GO) run ./cmd/cscelint ./...

# The hot-path allocation gate in isolation: //csce:hotpath functions are
# checked against the compiler's escape analysis, with known allocations
# pinned (and justified) in ALLOC_BUDGET.json. `lint` already includes
# this; the standalone target is for iterating on hot-path code.
alloc-gate:
	$(GO) run ./cmd/cscelint -checks allocfree ./...

# Flag/documentation drift gate: every flag the csced, cscematch, and
# cscebenchserve binaries define must be documented in README.md or
# OPERATIONS.md (stdlib-only checker; see cmd/cscedocs).
docscheck:
	$(GO) run ./cmd/cscedocs

# benchmark/ is its own module (it imports internal/* through a replace
# directive), so the tier-1 `go test ./...` never compiles it: vet and its
# own tests run here, so an internal API change that breaks the benchmark
# fails ci instead of the benchmark pipeline.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Ten seconds of native fuzzing each over the WAL's one frame scanner and
# record decoder and over the CCSR store decoder, on top of their seed
# corpora (internal/live/testdata/fuzz and the f.Add calls of FuzzDecode,
# which every plain `go test` run already replays).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSegmentScan -fuzztime 10s ./internal/live
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/ccsr

ci: build vet lint alloc-gate docscheck test race live-race crash-race shard-race prefilter-race bench-selftest fuzz-smoke

# Observability hot-path benchmarks plus the enforced budgets: <50ns/op on
# histogram recording and <150ns/op on the span-export enqueue — the two
# operations the query path pays per request (OBS_BENCH=1 turns the
# measurements into assertions; without it the budget tests only log).
bench-obs:
	OBS_BENCH=1 $(GO) test ./internal/obs -run TestHistogramRecordBudget -bench . -benchmem
	OBS_BENCH=1 $(GO) test ./internal/obs/export -run TestEnqueueBudget -bench . -benchmem

# Concurrent-load serving benchmark: the same graph as one single-store
# live graph vs a K=4 scatter-gather coordinator, 4 writers + 1 reader.
# Writes BENCH_serve.json (checked in) and fails unless sharded mutation
# throughput is at least 2x the single-store number.
bench-serve:
	$(GO) run ./cmd/cscebenchserve -out BENCH_serve.json -check

# Admission pre-filter benchmark: label/cluster/degree-impossible queries
# against a live-mutating K=4 coordinator. Writes BENCH_prefilter.json
# (checked in: reject-path latency quantiles, per-filter breakdown) and
# fails unless at least 90% of the impossible workload is rejected before
# the scatter.
bench-prefilter:
	$(GO) run ./cmd/cscebenchserve -mode prefilter -out BENCH_prefilter.json -check
