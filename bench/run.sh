#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the harness from source and
# runs it from the checkout root. Everything the go command writes — build
# cache, temporary files, its own counters — is kept inside the checkout,
# under .bench_build/, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
