#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload explore-flat --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod
export GOPROXY=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -dir "$out" "$@"
