#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing is written outside the checkout) and runs it from the checkout
# root with the caller's arguments.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/sbft-benchmark" .
exec "$build/sbft-benchmark" "$@"
