#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and
# runs it from bench/, where it writes out/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOWORK=off GOTOOLCHAIN=local
cd "$bench"
go build -buildvcs=false -o "$build/divbench" .
exec "$build/divbench" "$@"
