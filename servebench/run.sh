#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash servebench/run.sh --workload hot-rmw --seed 1 --seconds 30 --trace 0
# Everything the Go toolchain writes (binary, build cache, module cache,
# telemetry) stays under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C servebench build -o "$out/servebench" .
exec "$out/servebench" "$@"
