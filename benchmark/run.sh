#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness (its own module, benchmark/go.mod) and lets it build
# cmd/csced, both into .bench_build/ with the Go caches kept there too, so
# nothing is read or written outside the checkout; then runs the harness.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/cmd/csced/main.go" ] || [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a checkout (no cmd/csced here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
