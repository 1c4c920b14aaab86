#!/usr/bin/env bash
# The command BENCHMARK.json names: build bench/ from the sources of this
# checkout, then run it with the caller's arguments. Everything the build
# leaves behind — the binary and Go's build cache — stays in .bench_build
# at the root of the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/zkbench" .
exec "$build/zkbench" "$@"
