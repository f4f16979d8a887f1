#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: the entry point BENCHMARK.json names. Everything the build writes
# (compiler cache, binary) stays under .bench_build in the checkout; run
# outputs go to benchmark/out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/impeller-benchmark" .)
exec "$build/impeller-benchmark" "$@"
