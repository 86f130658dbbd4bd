#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source inside
# the checkout, then run it with the caller's arguments. Every file the build
# writes (Go build cache, link temporaries, the binary) stays under
# .bench_build/, so nothing outside the checkout is touched.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
