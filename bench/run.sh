#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source, then run it with the driver's arguments. Everything it
# writes — binary, Go build cache, reports, traces, scratch files — stays
# under bench/out/, which is git-ignored.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$bench/out/.build" # dot-prefixed: the go tool's ./... skips it
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$bench" && go build -o "$build/varade-bench" .)
exec "$build/varade-bench" -out "$bench/out" "$@"
