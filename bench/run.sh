#!/usr/bin/env bash
# The benchmark's build file: builds package prima/bench from source into
# <checkout>/.bench_build and runs it from the root of the checkout, so that
# every file the build and the run leave behind stays inside the checkout
# (Go's build cache and temp dir included). `go run ./bench` from the root
# runs the same program with the user's own build cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
