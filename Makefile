GO ?= go

.PHONY: build test race vet lint docscheck bench-selftest fuzz-smoke bench-smoke ci bench-obs bench-serve bench-prefilter

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite re-runs under the race detector; part of the tier-1
# check. It is the one -race pass: it covers the live-ingest swap and
# subscription paths, the ccsr copy-on-write sharing tests, the shard
# exactness matrix, the prefilter never-wrong corpus and the SIGKILL
# crash drills of cmd/csced, which earlier focused targets re-ran with the
# same flags (DESIGN.md "Static analysis" records why they went).
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: unchecked errors, the hot-path
# allocation budget (ALLOC_BUDGET.json), snapshot refcount balance,
# lock/unlock balance, plain access to atomically-accessed fields, and the
# module-wide lock order — each kept because it caught a bug or a mutation
# drill no other gate catches (see DESIGN.md "Static analysis"). Not a ci
# prerequisite: TestRepositoryIsClean runs the same suite over the module
# inside `test`. Scope a run with
# `go run ./cmd/cscelint -checks allocfree ./internal/exec`.
lint:
	$(GO) run ./cmd/cscelint ./...

# Flag/documentation drift check: every flag the csced, cscematch, and
# cscebenchserve binaries define must be documented in README.md or
# OPERATIONS.md (stdlib-only checker; see cmd/cscedocs). Not a ci
# prerequisite: TestRepoDocsComplete runs the same check inside `test`.
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

# Every in-process benchmark of the serving, sharded and single-store
# match paths and of the executor runs once (about a second once the test
# binaries are built): a benchmark body never runs under `test`, so
# BenchmarkHandleMatch, BenchmarkShardMatch, BenchmarkEngineMatch and
# BenchmarkExtend, which performance changes cite, would otherwise rot
# unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/server ./internal/shard ./internal/core ./internal/exec ./internal/ccsr

ci: build vet test race bench-selftest fuzz-smoke bench-smoke

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
