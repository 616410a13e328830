#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the arguments given. Everything the
# go tool writes (build cache, telemetry, the binary) is kept under
# .bench_build/ at the checkout root, so a run touches nothing outside the
# checkout and a second run reuses the first one's build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
