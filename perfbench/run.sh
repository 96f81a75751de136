#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload ocean-migrate --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, binary, span dumps) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
