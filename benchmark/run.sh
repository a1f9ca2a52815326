#!/usr/bin/env bash
# Builds the benchmark and runs it. Everything Go writes while building --
# build cache, module cache, the binary -- stays under .bench_build in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/hyrisenv-bench" .)
cd "$root"
exec "$build/hyrisenv-bench" "$@"
