#!/usr/bin/env bash
# Builds the finqd benchmark from the checkout's sources and runs it.
#
#   bash finqbench/run.sh --workload point --seed 1 --seconds 36 --trace 0
#
# Run from the repository root. The Go build cache, module cache and the
# binary all live under .bench_build/ in the root, so the benchmark reads
# and writes nothing outside the checkout. Without the repository's go.mod
# next to finqbench/ the build fails and so does this script.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$root/finqbench" -o "$out/finqbench" .
exec "$out/finqbench" "$@"
