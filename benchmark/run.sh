#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte the build
# and the run write inside the checkout (.bench_build/).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/sagabench-benchmark" .
exec "$build/sagabench-benchmark" "$@"
