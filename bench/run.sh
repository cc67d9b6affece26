#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout:
# binary, Go build cache and temp files) and runs it. Called from the root of
# the checkout as BENCHMARK.json's command; all arguments go to the binary.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/ohmbench-e2e" .
exec "$build/ohmbench-e2e" "$@"
