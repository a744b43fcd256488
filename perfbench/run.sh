#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload batch-anti8d --seed 1 --seconds 10 --trace 0
# Build outputs and the Go caches stay under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
